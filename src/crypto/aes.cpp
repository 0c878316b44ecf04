#include "crypto/aes.hpp"

#include <cstring>

#include "crypto/aes_backend.hpp"
#include "util/error.hpp"

namespace mobiceal::crypto {

namespace {

// ---- Table generation -----------------------------------------------------
// The S-box is built from the multiplicative inverse in GF(2^8) followed by
// the affine transform, per FIPS-197 §5.1.1. Generating it (instead of
// hard-coding 256 literals) removes transcription risk; the result is
// verified against the standard's test vectors in tests/crypto_test.cpp.

struct AesTables {
  std::uint8_t sbox[256];
  std::uint8_t inv_sbox[256];
  // Encryption T-tables: Te[i][x] = round-function contribution of byte x in
  // position i (SubBytes + ShiftRows + MixColumns fused).
  std::uint32_t Te0[256], Te1[256], Te2[256], Te3[256];
  // Decryption T-tables (InvSubBytes + InvShiftRows + InvMixColumns fused).
  std::uint32_t Td0[256], Td1[256], Td2[256], Td3[256];
};

constexpr std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1B));
}

constexpr std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t r = 0;
  while (b) {
    if (b & 1) r ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return r;
}

AesTables build_tables() {
  AesTables t{};
  // GF(2^8) log/antilog tables over generator 3.
  std::uint8_t pow3[256];
  std::uint8_t log3[256];
  std::uint8_t p = 1;
  for (int i = 0; i < 256; ++i) {
    pow3[i] = p;
    log3[p] = static_cast<std::uint8_t>(i);
    p = static_cast<std::uint8_t>(p ^ xtime(p));  // multiply by 3
  }
  for (int x = 0; x < 256; ++x) {
    const std::uint8_t inv =
        (x == 0) ? 0 : pow3[(255 - log3[static_cast<std::uint8_t>(x)]) % 255];
    // Affine transform: b ^ rot(b,1) ^ rot(b,2) ^ rot(b,3) ^ rot(b,4) ^ 0x63.
    std::uint8_t s = inv;
    std::uint8_t r = inv;
    for (int i = 0; i < 4; ++i) {
      r = static_cast<std::uint8_t>((r << 1) | (r >> 7));
      s ^= r;
    }
    s ^= 0x63;
    t.sbox[x] = s;
    t.inv_sbox[s] = static_cast<std::uint8_t>(x);
  }
  for (int x = 0; x < 256; ++x) {
    const std::uint8_t s = t.sbox[x];
    const std::uint32_t te =
        (std::uint32_t{gf_mul(s, 2)} << 24) | (std::uint32_t{s} << 16) |
        (std::uint32_t{s} << 8) | std::uint32_t{gf_mul(s, 3)};
    t.Te0[x] = te;
    t.Te1[x] = (te >> 8) | (te << 24);
    t.Te2[x] = (te >> 16) | (te << 16);
    t.Te3[x] = (te >> 24) | (te << 8);

    const std::uint8_t si = t.inv_sbox[x];
    const std::uint32_t td =
        (std::uint32_t{gf_mul(si, 14)} << 24) |
        (std::uint32_t{gf_mul(si, 9)} << 16) |
        (std::uint32_t{gf_mul(si, 13)} << 8) | std::uint32_t{gf_mul(si, 11)};
    t.Td0[x] = td;
    t.Td1[x] = (td >> 8) | (td << 24);
    t.Td2[x] = (td >> 16) | (td << 16);
    t.Td3[x] = (td >> 24) | (td << 8);
  }
  return t;
}

const AesTables& tables() {
  static const AesTables t = build_tables();
  return t;
}

std::uint32_t sub_word(std::uint32_t w) {
  const auto& t = tables();
  return (std::uint32_t{t.sbox[(w >> 24) & 0xFF]} << 24) |
         (std::uint32_t{t.sbox[(w >> 16) & 0xFF]} << 16) |
         (std::uint32_t{t.sbox[(w >> 8) & 0xFF]} << 8) |
         std::uint32_t{t.sbox[w & 0xFF]};
}

std::uint32_t rot_word(std::uint32_t w) { return (w << 8) | (w >> 24); }

constexpr std::uint32_t kRcon[11] = {0x00000000, 0x01000000, 0x02000000,
                                     0x04000000, 0x08000000, 0x10000000,
                                     0x20000000, 0x40000000, 0x80000000,
                                     0x1B000000, 0x36000000};

// InvMixColumns of a round-key word, used to build the decryption schedule
// for the equivalent inverse cipher.
std::uint32_t inv_mix_word(std::uint32_t w) {
  const auto& t = tables();
  return t.Td0[t.sbox[(w >> 24) & 0xFF]] ^ t.Td1[t.sbox[(w >> 16) & 0xFF]] ^
         t.Td2[t.sbox[(w >> 8) & 0xFF]] ^ t.Td3[t.sbox[w & 0xFF]];
}

}  // namespace

Aes::Aes(util::ByteSpan key) {
  const std::size_t nk = key.size() / 4;
  if (key.size() != 16 && key.size() != 24 && key.size() != 32) {
    throw util::CryptoError("AES key must be 16, 24 or 32 bytes");
  }
  key_bits_ = key.size() * 8;
  ks_.rounds = nk + 6;
  const std::size_t nw = 4 * (ks_.rounds + 1);
  auto& enc = ks_.enc;
  auto& dec = ks_.dec;

  for (std::size_t i = 0; i < nk; ++i) {
    enc[i] = util::load_be32(key.data() + 4 * i);
  }
  for (std::size_t i = nk; i < nw; ++i) {
    std::uint32_t temp = enc[i - 1];
    if (i % nk == 0) {
      temp = sub_word(rot_word(temp)) ^ kRcon[i / nk];
    } else if (nk > 6 && i % nk == 4) {
      temp = sub_word(temp);
    }
    enc[i] = enc[i - nk] ^ temp;
  }

  // Decryption schedule: reversed round keys with InvMixColumns applied to
  // the middle rounds (equivalent inverse cipher, FIPS-197 §5.3.5).
  for (std::size_t i = 0; i < nw; ++i) {
    dec[i] = enc[nw - 4 - 4 * (i / 4) + (i % 4)];
  }
  for (std::size_t i = 4; i < nw - 4; ++i) {
    dec[i] = inv_mix_word(dec[i]);
  }
  for (std::size_t i = 0; i < nw; ++i) {
    util::store_be32(ks_.enc_bytes.data() + 4 * i, enc[i]);
    util::store_be32(ks_.dec_bytes.data() + 4 * i, dec[i]);
  }
}

void Aes::encrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const {
  detail::active_backend().ecb_encrypt(ks_, in, out, 1);
}

void Aes::decrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const {
  detail::active_backend().ecb_decrypt(ks_, in, out, 1);
}

namespace detail {
namespace {

void soft_encrypt_block(const AesSchedule& ks, const std::uint8_t in[16],
                        std::uint8_t out[16]) {
  const auto& t = tables();
  const auto& rk = ks.enc;
  std::uint32_t s0 = util::load_be32(in) ^ rk[0];
  std::uint32_t s1 = util::load_be32(in + 4) ^ rk[1];
  std::uint32_t s2 = util::load_be32(in + 8) ^ rk[2];
  std::uint32_t s3 = util::load_be32(in + 12) ^ rk[3];

  std::size_t k = 4;
  for (std::size_t round = 1; round < ks.rounds; ++round, k += 4) {
    const std::uint32_t t0 = t.Te0[(s0 >> 24) & 0xFF] ^
                             t.Te1[(s1 >> 16) & 0xFF] ^
                             t.Te2[(s2 >> 8) & 0xFF] ^ t.Te3[s3 & 0xFF] ^
                             rk[k];
    const std::uint32_t t1 = t.Te0[(s1 >> 24) & 0xFF] ^
                             t.Te1[(s2 >> 16) & 0xFF] ^
                             t.Te2[(s3 >> 8) & 0xFF] ^ t.Te3[s0 & 0xFF] ^
                             rk[k + 1];
    const std::uint32_t t2 = t.Te0[(s2 >> 24) & 0xFF] ^
                             t.Te1[(s3 >> 16) & 0xFF] ^
                             t.Te2[(s0 >> 8) & 0xFF] ^ t.Te3[s1 & 0xFF] ^
                             rk[k + 2];
    const std::uint32_t t3 = t.Te0[(s3 >> 24) & 0xFF] ^
                             t.Te1[(s0 >> 16) & 0xFF] ^
                             t.Te2[(s1 >> 8) & 0xFF] ^ t.Te3[s2 & 0xFF] ^
                             rk[k + 3];
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }

  // Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
  const auto& sb = t.sbox;
  const std::uint32_t r0 = (std::uint32_t{sb[(s0 >> 24) & 0xFF]} << 24) |
                           (std::uint32_t{sb[(s1 >> 16) & 0xFF]} << 16) |
                           (std::uint32_t{sb[(s2 >> 8) & 0xFF]} << 8) |
                           std::uint32_t{sb[s3 & 0xFF]};
  const std::uint32_t r1 = (std::uint32_t{sb[(s1 >> 24) & 0xFF]} << 24) |
                           (std::uint32_t{sb[(s2 >> 16) & 0xFF]} << 16) |
                           (std::uint32_t{sb[(s3 >> 8) & 0xFF]} << 8) |
                           std::uint32_t{sb[s0 & 0xFF]};
  const std::uint32_t r2 = (std::uint32_t{sb[(s2 >> 24) & 0xFF]} << 24) |
                           (std::uint32_t{sb[(s3 >> 16) & 0xFF]} << 16) |
                           (std::uint32_t{sb[(s0 >> 8) & 0xFF]} << 8) |
                           std::uint32_t{sb[s1 & 0xFF]};
  const std::uint32_t r3 = (std::uint32_t{sb[(s3 >> 24) & 0xFF]} << 24) |
                           (std::uint32_t{sb[(s0 >> 16) & 0xFF]} << 16) |
                           (std::uint32_t{sb[(s1 >> 8) & 0xFF]} << 8) |
                           std::uint32_t{sb[s2 & 0xFF]};
  util::store_be32(out, r0 ^ rk[k]);
  util::store_be32(out + 4, r1 ^ rk[k + 1]);
  util::store_be32(out + 8, r2 ^ rk[k + 2]);
  util::store_be32(out + 12, r3 ^ rk[k + 3]);
}

void soft_decrypt_block(const AesSchedule& ks, const std::uint8_t in[16],
                        std::uint8_t out[16]) {
  const auto& t = tables();
  const auto& rk = ks.dec;
  std::uint32_t s0 = util::load_be32(in) ^ rk[0];
  std::uint32_t s1 = util::load_be32(in + 4) ^ rk[1];
  std::uint32_t s2 = util::load_be32(in + 8) ^ rk[2];
  std::uint32_t s3 = util::load_be32(in + 12) ^ rk[3];

  std::size_t k = 4;
  for (std::size_t round = 1; round < ks.rounds; ++round, k += 4) {
    const std::uint32_t t0 = t.Td0[(s0 >> 24) & 0xFF] ^
                             t.Td1[(s3 >> 16) & 0xFF] ^
                             t.Td2[(s2 >> 8) & 0xFF] ^ t.Td3[s1 & 0xFF] ^
                             rk[k];
    const std::uint32_t t1 = t.Td0[(s1 >> 24) & 0xFF] ^
                             t.Td1[(s0 >> 16) & 0xFF] ^
                             t.Td2[(s3 >> 8) & 0xFF] ^ t.Td3[s2 & 0xFF] ^
                             rk[k + 1];
    const std::uint32_t t2 = t.Td0[(s2 >> 24) & 0xFF] ^
                             t.Td1[(s1 >> 16) & 0xFF] ^
                             t.Td2[(s0 >> 8) & 0xFF] ^ t.Td3[s3 & 0xFF] ^
                             rk[k + 2];
    const std::uint32_t t3 = t.Td0[(s3 >> 24) & 0xFF] ^
                             t.Td1[(s2 >> 16) & 0xFF] ^
                             t.Td2[(s1 >> 8) & 0xFF] ^ t.Td3[s0 & 0xFF] ^
                             rk[k + 3];
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }

  const auto& isb = t.inv_sbox;
  const std::uint32_t r0 = (std::uint32_t{isb[(s0 >> 24) & 0xFF]} << 24) |
                           (std::uint32_t{isb[(s3 >> 16) & 0xFF]} << 16) |
                           (std::uint32_t{isb[(s2 >> 8) & 0xFF]} << 8) |
                           std::uint32_t{isb[s1 & 0xFF]};
  const std::uint32_t r1 = (std::uint32_t{isb[(s1 >> 24) & 0xFF]} << 24) |
                           (std::uint32_t{isb[(s0 >> 16) & 0xFF]} << 16) |
                           (std::uint32_t{isb[(s3 >> 8) & 0xFF]} << 8) |
                           std::uint32_t{isb[s2 & 0xFF]};
  const std::uint32_t r2 = (std::uint32_t{isb[(s2 >> 24) & 0xFF]} << 24) |
                           (std::uint32_t{isb[(s1 >> 16) & 0xFF]} << 16) |
                           (std::uint32_t{isb[(s0 >> 8) & 0xFF]} << 8) |
                           std::uint32_t{isb[s3 & 0xFF]};
  const std::uint32_t r3 = (std::uint32_t{isb[(s3 >> 24) & 0xFF]} << 24) |
                           (std::uint32_t{isb[(s2 >> 16) & 0xFF]} << 16) |
                           (std::uint32_t{isb[(s1 >> 8) & 0xFF]} << 8) |
                           std::uint32_t{isb[s0 & 0xFF]};
  util::store_be32(out, r0 ^ rk[k]);
  util::store_be32(out + 4, r1 ^ rk[k + 1]);
  util::store_be32(out + 8, r2 ^ rk[k + 2]);
  util::store_be32(out + 12, r3 ^ rk[k + 3]);
}

void soft_ecb_encrypt(const AesSchedule& ks, const std::uint8_t* in,
                      std::uint8_t* out, std::size_t blocks) {
  for (std::size_t b = 0; b < blocks; ++b) {
    soft_encrypt_block(ks, in + 16 * b, out + 16 * b);
  }
}

void soft_ecb_decrypt(const AesSchedule& ks, const std::uint8_t* in,
                      std::uint8_t* out, std::size_t blocks) {
  for (std::size_t b = 0; b < blocks; ++b) {
    soft_decrypt_block(ks, in + 16 * b, out + 16 * b);
  }
}

void soft_cbc_encrypt(const AesSchedule& ks, const std::uint8_t* ivs,
                      std::size_t units, std::size_t len,
                      const std::uint8_t* in, std::uint8_t* out) {
  for (std::size_t u = 0; u < units; ++u) {
    std::uint8_t chain[16];
    std::memcpy(chain, ivs + 16 * u, 16);
    for (std::size_t at = u * len; at < (u + 1) * len; at += 16) {
      for (int i = 0; i < 16; ++i) chain[i] ^= in[at + i];
      soft_encrypt_block(ks, chain, chain);
      std::memcpy(out + at, chain, 16);
    }
  }
}

void soft_cbc_decrypt(const AesSchedule& ks, const std::uint8_t* ivs,
                      std::size_t units, std::size_t len,
                      const std::uint8_t* in, std::uint8_t* out) {
  for (std::size_t u = 0; u < units; ++u) {
    std::uint8_t chain[16];
    std::memcpy(chain, ivs + 16 * u, 16);
    for (std::size_t at = u * len; at < (u + 1) * len; at += 16) {
      std::uint8_t ct[16];
      std::memcpy(ct, in + at, 16);  // allow in-place
      std::uint8_t block[16];
      soft_decrypt_block(ks, ct, block);
      for (int i = 0; i < 16; ++i) out[at + i] = block[i] ^ chain[i];
      std::memcpy(chain, ct, 16);
    }
  }
}

// GF(2^128) doubling for the XTS tweak, little-endian per IEEE 1619.
void gf128_double_le(std::uint8_t t[16]) {
  const std::uint8_t carry = t[15] >> 7;
  for (int i = 15; i > 0; --i) {
    t[i] = static_cast<std::uint8_t>((t[i] << 1) | (t[i - 1] >> 7));
  }
  t[0] = static_cast<std::uint8_t>(t[0] << 1);
  if (carry) t[0] ^= 0x87;
}

template <bool kEncrypt>
void soft_xts(const AesSchedule& ks, const std::uint8_t* tweaks,
              std::size_t units, std::size_t len, const std::uint8_t* in,
              std::uint8_t* out) {
  for (std::size_t u = 0; u < units; ++u) {
    std::uint8_t tweak[16];
    std::memcpy(tweak, tweaks + 16 * u, 16);
    for (std::size_t at = u * len; at < (u + 1) * len; at += 16) {
      std::uint8_t block[16];
      for (int i = 0; i < 16; ++i) block[i] = in[at + i] ^ tweak[i];
      if constexpr (kEncrypt) {
        soft_encrypt_block(ks, block, block);
      } else {
        soft_decrypt_block(ks, block, block);
      }
      for (int i = 0; i < 16; ++i) out[at + i] = block[i] ^ tweak[i];
      gf128_double_le(tweak);
    }
  }
}

constexpr AesBackend kSoftware{
    "software",       soft_ecb_encrypt, soft_ecb_decrypt, soft_cbc_encrypt,
    soft_cbc_decrypt, soft_xts<true>,   soft_xts<false>};

}  // namespace

const AesBackend& software_backend() noexcept { return kSoftware; }

const AesBackend& active_backend() noexcept {
  static const AesBackend& chosen =
      hardware_backend() ? *hardware_backend() : software_backend();
  return chosen;
}

}  // namespace detail
}  // namespace mobiceal::crypto
