// ChaCha20-based CSPRNG modelling the kernel's get_random_bytes().
//
// The paper's dummy-write implementation draws `rand` from
// get_random_bytes() and fills dummy blocks with random noise (Sec. V-A).
// We model that entropy source with a ChaCha20 keystream generator (the same
// construction the modern Linux /dev/urandom uses). Seeding is explicit so
// whole experiments replay deterministically; nothing in the simulation
// reads ambient entropy.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace mobiceal::crypto {

/// RFC 8439 ChaCha20 block function: generates 64 bytes of keystream for
/// (key, counter, nonce). Exposed for tests against the RFC vectors.
void chacha20_block(const std::uint8_t key[32], std::uint32_t counter,
                    const std::uint8_t nonce[12], std::uint8_t out[64]);

/// Deterministic CSPRNG: ChaCha20 keystream under a seed-derived key.
/// Implements util::Rng so it can drive the DummyWriteEngine exactly where
/// the kernel implementation calls get_random_bytes().
class SecureRandom final : public util::Rng {
 public:
  /// Seeds from a 64-bit simulation seed (expanded via SHA-256).
  explicit SecureRandom(std::uint64_t seed);

  /// Seeds from an explicit 32-byte key (for key-derivation test vectors).
  explicit SecureRandom(util::ByteSpan key32);

  std::uint64_t next_u64() override;

  /// Rng::fill on the bulk path: whole keystream words read from a word
  /// boundary are exactly the bytes fill_bytes copies, so those fills go
  /// there; any other fill takes the generic word loop.
  void fill(util::MutByteSpan out) override;

  /// Fill a buffer with keystream bytes (bulk path for noise generation).
  void fill_bytes(util::MutByteSpan out);

  /// Fresh random byte-buffer of length n.
  util::Bytes bytes(std::size_t n);

 private:
  void refill();
  std::array<std::uint8_t, 32> key_{};
  std::array<std::uint8_t, 12> nonce_{};
  std::uint32_t counter_ = 0;
  std::array<std::uint8_t, 64> block_{};
  std::size_t pos_ = 64;  // forces refill on first use
};

}  // namespace mobiceal::crypto
