// Deterministic pseudo-random number generation for the simulation layers.
//
// Two distinct roles exist in this codebase:
//   * simulation randomness (workload generation, allocator choices, timing
//     jitter) — must be *reproducible* across runs, seeded explicitly; that
//     is what this header provides;
//   * cryptographic randomness (keys, salts, dummy noise) — provided by
//     crypto::SecureRandom (ChaCha20-based), which models the kernel's
//     get_random_bytes() used by the paper's implementation (Sec. V-A).
#pragma once

#include <cstdint>
#include <limits>

#include "util/bytes.hpp"

namespace mobiceal::util {

/// Abstract uniform random source. Allows swapping deterministic simulation
/// RNGs and the crypto CSPRNG behind one interface (e.g. DummyWriteEngine
/// takes an Rng& so tests can drive it deterministically).
class Rng {
 public:
  virtual ~Rng() = default;

  /// Uniform 64-bit word.
  virtual std::uint64_t next_u64() = 0;

  /// Uniform integer in [0, bound), bound > 0. Unbiased (rejection sampling).
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t next_range(std::uint64_t lo, std::uint64_t hi);

  /// Uniform double in [0, 1).
  double next_unit();

  /// Fill a buffer with random bytes: little-endian next_u64() words, the
  /// last word truncated. Overrides must produce the same bytes and leave
  /// the generator in the same state.
  virtual void fill(MutByteSpan out);
};

/// xoshiro256** by Blackman & Vigna — fast, high-quality, deterministic.
/// Used for all simulation decisions so experiments replay bit-for-bit.
class Xoshiro256 final : public Rng {
 public:
  explicit Xoshiro256(std::uint64_t seed) noexcept;

  std::uint64_t next_u64() override;

  /// Jump function: advance 2^128 steps, for partitioning one seed into
  /// independent streams (one per subsystem).
  void jump();

 private:
  std::uint64_t s_[4];
};

/// SplitMix64 — used to expand a single seed into xoshiro state.
class SplitMix64 final : public Rng {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}
  std::uint64_t next_u64() override;

 private:
  std::uint64_t state_;
};

}  // namespace mobiceal::util
