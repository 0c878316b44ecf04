// Block cipher modes for sector-level encryption (the dm-crypt substrate).
//
// Android 4.2 FDE — the configuration MobiCeal builds on (Sec. II-A) — uses
// aes-cbc-essiv:sha256 through dm-crypt; modern kernels prefer aes-xts-plain64.
// We implement both so benchmarks can compare, plus raw CBC and CTR used by
// tests and by the DEFY/HIVE baseline models.
//
// All sector operations are length-preserving: a sector of N*16 bytes maps to
// exactly N*16 bytes of ciphertext (no padding, no per-sector MAC), exactly
// like dm-crypt. This is what makes ciphertext indistinguishable from the
// random noise written by dummy writes — the core deniability property.
#pragma once

#include <cstdint>
#include <memory>

#include "crypto/aes.hpp"
#include "util/bytes.hpp"

namespace mobiceal::crypto {

/// CBC encryption over a whole buffer with an explicit IV. Buffer length must
/// be a multiple of 16. No padding (callers operate on aligned sectors).
void cbc_encrypt(const Aes& aes, util::ByteSpan iv, util::ByteSpan plaintext,
                 util::MutByteSpan ciphertext);
void cbc_decrypt(const Aes& aes, util::ByteSpan iv, util::ByteSpan ciphertext,
                 util::MutByteSpan plaintext);

/// CTR keystream mode (used by baselines and the footer key wrap).
/// `nonce` is 16 bytes; the counter occupies the last 8 bytes (big-endian).
void ctr_xcrypt(const Aes& aes, util::ByteSpan nonce, util::ByteSpan in,
                util::MutByteSpan out);

namespace detail {
struct AesBackend;
}  // namespace detail

/// Per-sector cipher: encrypts/decrypts sectors addressed by their logical
/// sector number. This is the exact abstraction dm-crypt implements in the
/// kernel; dm::CryptTarget wraps one of these. A whole run of sectors is
/// the unit of work, so a cipher can interleave independent sectors.
class SectorCipher {
 public:
  virtual ~SectorCipher() = default;

  /// Range transform: processes `in.size() / sector_size` consecutive
  /// sectors starting at `first_sector` in one call. Sector s of the buffer
  /// uses IV/tweak `first_sector + s`, so the ciphertext is bit-identical to
  /// a per-sector loop and to any split of the range — callers batch for
  /// throughput, never for different bytes. In-place (in == out) is allowed.
  /// Throws util::CryptoError on size mismatch or a buffer not a multiple of
  /// sector_size (itself a nonzero multiple of 16).
  void encrypt_range(std::uint64_t first_sector, std::size_t sector_size,
                     util::ByteSpan in, util::MutByteSpan out) const;
  void decrypt_range(std::uint64_t first_sector, std::size_t sector_size,
                     util::ByteSpan in, util::MutByteSpan out) const;

  virtual const char* name() const noexcept = 0;

 private:
  /// The only transform hooks; arguments are already checked.
  virtual void do_encrypt_range(std::uint64_t first_sector,
                                std::size_t sector_size, util::ByteSpan in,
                                util::MutByteSpan out) const = 0;
  virtual void do_decrypt_range(std::uint64_t first_sector,
                                std::size_t sector_size, util::ByteSpan in,
                                util::MutByteSpan out) const = 0;
};

/// aes-cbc-essiv:sha256 — IV for sector s is AES_{SHA256(key)}(s_le_padded).
/// Matches the Linux dm-crypt "essiv" IV generator used by Android 4.2 FDE.
class CbcEssivCipher final : public SectorCipher {
 public:
  explicit CbcEssivCipher(util::ByteSpan key);
  /// Bound to one AES backend (tests; the default is the process's own).
  CbcEssivCipher(util::ByteSpan key, const detail::AesBackend& backend);
  const char* name() const noexcept override { return "aes-cbc-essiv:sha256"; }

 private:
  void do_encrypt_range(std::uint64_t first_sector, std::size_t sector_size,
                        util::ByteSpan in,
                        util::MutByteSpan out) const override;
  void do_decrypt_range(std::uint64_t first_sector, std::size_t sector_size,
                        util::ByteSpan in,
                        util::MutByteSpan out) const override;
  const detail::AesBackend& backend_;
  Aes data_aes_;
  Aes essiv_aes_;
};

/// aes-xts-plain64 — IEEE 1619 XTS with the sector number as tweak.
/// The supplied key is split in half: first half data key, second tweak key.
class XtsCipher final : public SectorCipher {
 public:
  /// `key` must be 32 or 64 bytes (two AES-128 or two AES-256 keys).
  explicit XtsCipher(util::ByteSpan key);
  /// Bound to one AES backend (tests; the default is the process's own).
  XtsCipher(util::ByteSpan key, const detail::AesBackend& backend);
  const char* name() const noexcept override { return "aes-xts-plain64"; }

 private:
  void do_encrypt_range(std::uint64_t first_sector, std::size_t sector_size,
                        util::ByteSpan in,
                        util::MutByteSpan out) const override;
  void do_decrypt_range(std::uint64_t first_sector, std::size_t sector_size,
                        util::ByteSpan in,
                        util::MutByteSpan out) const override;
  const detail::AesBackend& backend_;
  Aes data_aes_;
  Aes tweak_aes_;
};

/// Identity cipher ("plain" passthrough) — used to measure the encryption
/// overhead itself in benchmarks (raw Ext4 rows of Table I).
class NullCipher final : public SectorCipher {
 public:
  const char* name() const noexcept override { return "null"; }

 private:
  void do_encrypt_range(std::uint64_t, std::size_t, util::ByteSpan in,
                        util::MutByteSpan out) const override;
  void do_decrypt_range(std::uint64_t, std::size_t, util::ByteSpan in,
                        util::MutByteSpan out) const override;
};

/// Factory by dm-crypt-style spec string: "aes-cbc-essiv:sha256",
/// "aes-xts-plain64" or "null". Throws util::CryptoError on unknown specs.
std::unique_ptr<SectorCipher> make_sector_cipher(const std::string& spec,
                                                 util::ByteSpan key);

}  // namespace mobiceal::crypto
