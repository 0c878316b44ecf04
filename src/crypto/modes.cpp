#include "crypto/modes.hpp"

#include <algorithm>
#include <cstring>

#include "crypto/aes_backend.hpp"
#include "crypto/sha.hpp"
#include "util/error.hpp"

namespace mobiceal::crypto {

namespace {
void check_aligned(util::ByteSpan in, util::MutByteSpan out) {
  if (in.size() != out.size()) {
    throw util::CryptoError("mode: in/out size mismatch");
  }
  if (in.size() % kAesBlockSize != 0) {
    throw util::CryptoError("mode: length not multiple of block size");
  }
}
}  // namespace

void cbc_encrypt(const Aes& aes, util::ByteSpan iv, util::ByteSpan plaintext,
                 util::MutByteSpan ciphertext) {
  check_aligned(plaintext, ciphertext);
  if (iv.size() != kAesBlockSize) throw util::CryptoError("cbc: bad IV size");
  detail::active_backend().cbc_encrypt(aes.schedule(), iv.data(), 1,
                                       plaintext.size(), plaintext.data(),
                                       ciphertext.data());
}

void cbc_decrypt(const Aes& aes, util::ByteSpan iv, util::ByteSpan ciphertext,
                 util::MutByteSpan plaintext) {
  check_aligned(ciphertext, plaintext);
  if (iv.size() != kAesBlockSize) throw util::CryptoError("cbc: bad IV size");
  detail::active_backend().cbc_decrypt(aes.schedule(), iv.data(), 1,
                                       ciphertext.size(), ciphertext.data(),
                                       plaintext.data());
}

void ctr_xcrypt(const Aes& aes, util::ByteSpan nonce, util::ByteSpan in,
                util::MutByteSpan out) {
  if (in.size() != out.size()) {
    throw util::CryptoError("ctr: in/out size mismatch");
  }
  if (nonce.size() != kAesBlockSize) throw util::CryptoError("ctr: bad nonce");
  std::uint8_t counter[16];
  std::memcpy(counter, nonce.data(), 16);
  std::uint8_t keystream[16];
  for (std::size_t off = 0; off < in.size(); off += 16) {
    aes.encrypt_block(counter, keystream);
    const std::size_t n = std::min<std::size_t>(16, in.size() - off);
    for (std::size_t i = 0; i < n; ++i) {
      out[off + i] = in[off + i] ^ keystream[i];
    }
    // Increment the big-endian counter in the last 8 bytes.
    for (int i = 15; i >= 8; --i) {
      if (++counter[i] != 0) break;
    }
  }
}

namespace {
void check_range_args(std::size_t sector_size, util::ByteSpan in,
                      util::MutByteSpan out) {
  if (sector_size == 0 || sector_size % kAesBlockSize != 0) {
    throw util::CryptoError("sector range: bad sector size");
  }
  if (in.size() != out.size()) {
    throw util::CryptoError("sector range: in/out size mismatch");
  }
  if (in.size() % sector_size != 0) {
    throw util::CryptoError("sector range: length not multiple of sector");
  }
}

/// Runs `kernel` over a sector range. Sector s starts from
/// E_{start}(s as a zero-padded little-endian 64-bit number) — the ESSIV
/// IV and the plain64 XTS tweak alike — and those start values are
/// computed a batch at a time, so the backend can interleave them too.
void run_sectors(const detail::AesBackend& backend, detail::UnitKernel kernel,
                 const Aes& data, const Aes& start, std::uint64_t first_sector,
                 std::size_t sector_size, util::ByteSpan in,
                 util::MutByteSpan out) {
  constexpr std::size_t kBatch = 64;
  std::uint8_t starts[kBatch * kAesBlockSize];
  const std::size_t sectors = in.size() / sector_size;
  for (std::size_t s = 0; s < sectors; s += kBatch) {
    const std::size_t n = std::min(kBatch, sectors - s);
    std::memset(starts, 0, n * kAesBlockSize);
    for (std::size_t i = 0; i < n; ++i) {
      util::store_le<std::uint64_t>(starts + i * kAesBlockSize,
                                    first_sector + s + i);
    }
    backend.ecb_encrypt(start.schedule(), starts, starts, n);
    kernel(data.schedule(), starts, n, sector_size,
           in.data() + s * sector_size, out.data() + s * sector_size);
  }
}

util::ByteSpan xts_half(util::ByteSpan key, bool tweak) {
  if (key.size() != 32 && key.size() != 64) {
    throw util::CryptoError("xts: key must be 32 or 64 bytes");
  }
  return {key.data() + (tweak ? key.size() / 2 : 0), key.size() / 2};
}
}  // namespace

void SectorCipher::encrypt_range(std::uint64_t first_sector,
                                 std::size_t sector_size, util::ByteSpan in,
                                 util::MutByteSpan out) const {
  check_range_args(sector_size, in, out);
  do_encrypt_range(first_sector, sector_size, in, out);
}

void SectorCipher::decrypt_range(std::uint64_t first_sector,
                                 std::size_t sector_size, util::ByteSpan in,
                                 util::MutByteSpan out) const {
  check_range_args(sector_size, in, out);
  do_decrypt_range(first_sector, sector_size, in, out);
}

CbcEssivCipher::CbcEssivCipher(util::ByteSpan key)
    : CbcEssivCipher(key, detail::active_backend()) {}

CbcEssivCipher::CbcEssivCipher(util::ByteSpan key,
                               const detail::AesBackend& backend)
    : backend_(backend), data_aes_(key), essiv_aes_(Sha256::digest(key)) {}

void CbcEssivCipher::do_encrypt_range(std::uint64_t first_sector,
                                      std::size_t sector_size,
                                      util::ByteSpan in,
                                      util::MutByteSpan out) const {
  run_sectors(backend_, backend_.cbc_encrypt, data_aes_, essiv_aes_,
              first_sector, sector_size, in, out);
}

void CbcEssivCipher::do_decrypt_range(std::uint64_t first_sector,
                                      std::size_t sector_size,
                                      util::ByteSpan in,
                                      util::MutByteSpan out) const {
  run_sectors(backend_, backend_.cbc_decrypt, data_aes_, essiv_aes_,
              first_sector, sector_size, in, out);
}

XtsCipher::XtsCipher(util::ByteSpan key)
    : XtsCipher(key, detail::active_backend()) {}

XtsCipher::XtsCipher(util::ByteSpan key, const detail::AesBackend& backend)
    : backend_(backend),
      data_aes_(xts_half(key, /*tweak=*/false)),
      tweak_aes_(xts_half(key, /*tweak=*/true)) {}

void XtsCipher::do_encrypt_range(std::uint64_t first_sector,
                                 std::size_t sector_size, util::ByteSpan in,
                                 util::MutByteSpan out) const {
  run_sectors(backend_, backend_.xts_encrypt, data_aes_, tweak_aes_,
              first_sector, sector_size, in, out);
}

void XtsCipher::do_decrypt_range(std::uint64_t first_sector,
                                 std::size_t sector_size, util::ByteSpan in,
                                 util::MutByteSpan out) const {
  run_sectors(backend_, backend_.xts_decrypt, data_aes_, tweak_aes_,
              first_sector, sector_size, in, out);
}

void NullCipher::do_encrypt_range(std::uint64_t, std::size_t,
                                  util::ByteSpan in,
                                  util::MutByteSpan out) const {
  if (in.data() != out.data()) std::memcpy(out.data(), in.data(), in.size());
}

void NullCipher::do_decrypt_range(std::uint64_t, std::size_t,
                                  util::ByteSpan in,
                                  util::MutByteSpan out) const {
  if (in.data() != out.data()) std::memcpy(out.data(), in.data(), in.size());
}

std::unique_ptr<SectorCipher> make_sector_cipher(const std::string& spec,
                                                 util::ByteSpan key) {
  if (spec == "aes-cbc-essiv:sha256") {
    return std::make_unique<CbcEssivCipher>(key);
  }
  if (spec == "aes-xts-plain64") {
    return std::make_unique<XtsCipher>(key);
  }
  if (spec == "null") {
    return std::make_unique<NullCipher>();
  }
  throw util::CryptoError("unknown cipher spec: " + spec);
}

}  // namespace mobiceal::crypto
