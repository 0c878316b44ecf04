// Hardware AES backend: x86 AES-NI through compiler intrinsics.
//
// The ECB and CBC kernels keep up to eight independent blocks in flight,
// because one `aesenc` has a latency of several cycles but issues every
// cycle: ECB interleaves consecutive blocks, CBC encryption interleaves
// eight chains (the eight 512-byte sectors of a 4 KiB block), and CBC
// decryption interleaves eight blocks of one chain, which it may since
// every plaintext block depends only on two ciphertext blocks. XTS, which
// serves only the footer translators and DEFY/HIVE, runs one block at a
// time. Only the functions here carry the `aes` target attribute, so the
// rest of the build needs no extra flags, and a non-x86 build compiles
// none of this.
#include "crypto/aes_backend.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>
#include <wmmintrin.h>

#define MOBICEAL_AESNI __attribute__((target("aes,sse2")))

namespace mobiceal::crypto::detail {

namespace {

constexpr int kLanes = 8;

MOBICEAL_AESNI inline __m128i load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

MOBICEAL_AESNI inline void store(std::uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

/// The round keys of one direction, loaded once per kernel call.
struct RoundKeys {
  __m128i k[15];
  std::size_t rounds;
};

template <bool kEncrypt>
MOBICEAL_AESNI inline RoundKeys round_keys(const AesSchedule& ks) {
  RoundKeys rk;
  rk.rounds = ks.rounds;
  const std::uint8_t* bytes =
      kEncrypt ? ks.enc_bytes.data() : ks.dec_bytes.data();
  for (std::size_t r = 0; r <= ks.rounds; ++r) {
    rk.k[r] = _mm_load_si128(reinterpret_cast<const __m128i*>(bytes + 16 * r));
  }
  return rk;
}

/// Runs W independent blocks through the cipher, round by round.
template <int W, bool kEncrypt>
MOBICEAL_AESNI inline void crypt(const RoundKeys& rk, __m128i* x) {
  for (int i = 0; i < W; ++i) x[i] = _mm_xor_si128(x[i], rk.k[0]);
  for (std::size_t r = 1; r < rk.rounds; ++r) {
    for (int i = 0; i < W; ++i) {
      if constexpr (kEncrypt) {
        x[i] = _mm_aesenc_si128(x[i], rk.k[r]);
      } else {
        x[i] = _mm_aesdec_si128(x[i], rk.k[r]);
      }
    }
  }
  for (int i = 0; i < W; ++i) {
    if constexpr (kEncrypt) {
      x[i] = _mm_aesenclast_si128(x[i], rk.k[rk.rounds]);
    } else {
      x[i] = _mm_aesdeclast_si128(x[i], rk.k[rk.rounds]);
    }
  }
}

template <bool kEncrypt>
MOBICEAL_AESNI void ni_ecb(const AesSchedule& ks, const std::uint8_t* in,
                           std::uint8_t* out, std::size_t blocks) {
  const RoundKeys rk = round_keys<kEncrypt>(ks);
  std::size_t b = 0;
  for (; b + kLanes <= blocks; b += kLanes) {
    __m128i x[kLanes];
    for (int i = 0; i < kLanes; ++i) x[i] = load(in + 16 * (b + i));
    crypt<kLanes, kEncrypt>(rk, x);
    for (int i = 0; i < kLanes; ++i) store(out + 16 * (b + i), x[i]);
  }
  for (; b < blocks; ++b) {
    __m128i x = load(in + 16 * b);
    crypt<1, kEncrypt>(rk, &x);
    store(out + 16 * b, x);
  }
}

/// W CBC chains of `len` bytes side by side, one block of each per step.
template <int W>
MOBICEAL_AESNI inline void cbc_encrypt_chains(const RoundKeys& rk,
                                              const std::uint8_t* ivs,
                                              std::size_t len,
                                              const std::uint8_t* in,
                                              std::uint8_t* out) {
  __m128i c[W];
  for (int i = 0; i < W; ++i) c[i] = load(ivs + 16 * i);
  for (std::size_t off = 0; off < len; off += 16) {
    for (int i = 0; i < W; ++i) c[i] = _mm_xor_si128(c[i], load(in + i * len + off));
    crypt<W, true>(rk, c);
    for (int i = 0; i < W; ++i) store(out + i * len + off, c[i]);
  }
}

MOBICEAL_AESNI void ni_cbc_encrypt(const AesSchedule& ks,
                                   const std::uint8_t* ivs, std::size_t units,
                                   std::size_t len, const std::uint8_t* in,
                                   std::uint8_t* out) {
  const RoundKeys rk = round_keys<true>(ks);
  std::size_t u = 0;
  for (; u + kLanes <= units; u += kLanes) {
    cbc_encrypt_chains<kLanes>(rk, ivs + 16 * u, len, in + u * len,
                               out + u * len);
  }
  for (; u < units; ++u) {
    cbc_encrypt_chains<1>(rk, ivs + 16 * u, len, in + u * len, out + u * len);
  }
}

MOBICEAL_AESNI void ni_cbc_decrypt(const AesSchedule& ks,
                                   const std::uint8_t* ivs, std::size_t units,
                                   std::size_t len, const std::uint8_t* in,
                                   std::uint8_t* out) {
  const RoundKeys rk = round_keys<false>(ks);
  for (std::size_t u = 0; u < units; ++u) {
    const std::uint8_t* src = in + u * len;
    std::uint8_t* dst = out + u * len;
    __m128i prev = load(ivs + 16 * u);
    std::size_t off = 0;
    // Every ciphertext block is loaded before any plaintext is stored, so
    // in-place buffers are safe.
    for (; off + 16 * kLanes <= len; off += 16 * kLanes) {
      __m128i ct[kLanes], x[kLanes];
      for (int i = 0; i < kLanes; ++i) x[i] = ct[i] = load(src + off + 16 * i);
      crypt<kLanes, false>(rk, x);
      x[0] = _mm_xor_si128(x[0], prev);
      for (int i = 1; i < kLanes; ++i) x[i] = _mm_xor_si128(x[i], ct[i - 1]);
      prev = ct[kLanes - 1];
      for (int i = 0; i < kLanes; ++i) store(dst + off + 16 * i, x[i]);
    }
    for (; off < len; off += 16) {
      const __m128i ct = load(src + off);
      __m128i x = ct;
      crypt<1, false>(rk, &x);
      store(dst + off, _mm_xor_si128(x, prev));
      prev = ct;
    }
  }
}

/// XTS tweak as two little-endian halves; doubling is a shift in GF(2^128)
/// reduced by x^128 = x^7 + x^2 + x + 1 (IEEE 1619).
struct Tweak {
  std::uint64_t lo, hi;
  void double_in_place() {
    const std::uint64_t carry = hi >> 63;
    hi = (hi << 1) | (lo >> 63);
    lo = (lo << 1) ^ (0x87 & (0 - carry));
  }
};

template <bool kEncrypt>
MOBICEAL_AESNI void ni_xts(const AesSchedule& ks, const std::uint8_t* tweaks,
                           std::size_t units, std::size_t len,
                           const std::uint8_t* in, std::uint8_t* out) {
  const RoundKeys rk = round_keys<kEncrypt>(ks);
  for (std::size_t u = 0; u < units; ++u) {
    const std::uint8_t* src = in + u * len;
    std::uint8_t* dst = out + u * len;
    Tweak t{util::load_le<std::uint64_t>(tweaks + 16 * u),
            util::load_le<std::uint64_t>(tweaks + 16 * u + 8)};
    for (std::size_t off = 0; off < len; off += 16) {
      const __m128i tw = _mm_set_epi64x(static_cast<long long>(t.hi),
                                        static_cast<long long>(t.lo));
      t.double_in_place();
      __m128i x = _mm_xor_si128(load(src + off), tw);
      crypt<1, kEncrypt>(rk, &x);
      store(dst + off, _mm_xor_si128(x, tw));
    }
  }
}

constexpr AesBackend kHardware{
    "aes-ni",       ni_ecb<true>, ni_ecb<false>, ni_cbc_encrypt,
    ni_cbc_decrypt, ni_xts<true>, ni_xts<false>};

bool cpu_has_aes() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("aes") && __builtin_cpu_supports("sse2");
}

}  // namespace

const AesBackend* hardware_backend() noexcept {
  static const AesBackend* const backend =
      cpu_has_aes() ? &kHardware : nullptr;
  return backend;
}

}  // namespace mobiceal::crypto::detail

#else

namespace mobiceal::crypto::detail {

const AesBackend* hardware_backend() noexcept { return nullptr; }

}  // namespace mobiceal::crypto::detail

#endif
