// AES-128/192/256 block cipher (FIPS-197), from scratch.
//
// This backs the dm-crypt reproduction exactly as the Linux kernel's AES
// backs Android FDE in the paper (Sec. II-A). Real phones run that AES on
// ARMv8 crypto extensions; here the host's AES instructions (x86 AES-NI,
// crypto/aes_ni.cpp) play that part whenever CPUID reports them. The choice
// is made once per process (crypto/aes_backend.hpp) and never changes a
// byte: both backends compute the same function, and the virtual cipher
// cost is dm::CryptCpuModel, not host time.
//
// The table-driven software path (T-tables generated at static
// initialisation from the algebraic S-box definition) is the reference the
// hardware path is tested against, and the fallback on CPUs and
// architectures without AES instructions. Its table lookups are a
// cache-timing side channel on real hardware; that is acceptable only
// because this simulator's threat model is the *storage image*, not the
// host CPU cache.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.hpp"

namespace mobiceal::crypto {

/// AES block size in bytes (fixed by the standard).
inline constexpr std::size_t kAesBlockSize = 16;

namespace detail {
/// An expanded key schedule in the layouts both backends want: big-endian
/// words for the T-tables, and the same round keys in byte order, 16-byte
/// aligned, for the AES instructions. `dec*` is the equivalent-inverse
/// schedule (FIPS-197 §5.3.5), which is also what `aesdec` expects.
struct AesSchedule {
  std::size_t rounds = 0;
  std::array<std::uint32_t, 60> enc{};  // max Nr+1 = 15 words * 4
  std::array<std::uint32_t, 60> dec{};
  alignas(16) std::array<std::uint8_t, 240> enc_bytes{};
  alignas(16) std::array<std::uint8_t, 240> dec_bytes{};
};
}  // namespace detail

/// One AES key schedule. Supports 128-, 192- and 256-bit keys.
class Aes {
 public:
  /// Expands the key schedule. Throws util::CryptoError unless key length is
  /// 16, 24 or 32 bytes.
  explicit Aes(util::ByteSpan key);

  /// Encrypt exactly one 16-byte block (in-place allowed: in == out).
  void encrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const;

  /// Decrypt exactly one 16-byte block (in-place allowed).
  void decrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const;

  std::size_t key_bits() const noexcept { return key_bits_; }

  /// The expanded schedule, for the backend kernels (crypto/aes_backend.hpp).
  const detail::AesSchedule& schedule() const noexcept { return ks_; }

 private:
  std::size_t key_bits_ = 0;
  detail::AesSchedule ks_;
};

}  // namespace mobiceal::crypto
