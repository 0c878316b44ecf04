// Known-answer tests for the from-scratch crypto substrate:
// FIPS-197 (AES), FIPS 180-4 (SHA), RFC 2202/4231 (HMAC), RFC 6070 (PBKDF2),
// RFC 8439 (ChaCha20), IEEE 1619 (XTS).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "crypto/aes.hpp"
#include "crypto/aes_backend.hpp"
#include "crypto/kdf.hpp"
#include "crypto/modes.hpp"
#include "crypto/random.hpp"
#include "crypto/sha.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace mobiceal;
using util::from_hex;
using util::to_hex;

// Every known-answer test runs on both AES backends: the T-table reference
// and, where the CPU has AES instructions, the hardware kernels.
namespace {

std::vector<const crypto::detail::AesBackend*> backends() {
  std::vector<const crypto::detail::AesBackend*> out{
      &crypto::detail::software_backend()};
  if (const auto* hw = crypto::detail::hardware_backend()) out.push_back(hw);
  return out;
}

/// One AES block vector: encrypt and decrypt on every backend.
void check_block_kat(const char* key_hex, const char* pt_hex,
                     const char* ct_hex) {
  const auto key = from_hex(key_hex);
  const auto pt = from_hex(pt_hex);
  const crypto::Aes aes(key);
  for (const auto* be : backends()) {
    SCOPED_TRACE(be->name);
    std::uint8_t ct[16];
    be->ecb_encrypt(aes.schedule(), pt.data(), ct, 1);
    EXPECT_EQ(to_hex({ct, 16}), ct_hex);
    std::uint8_t back[16];
    be->ecb_decrypt(aes.schedule(), ct, back, 1);
    EXPECT_EQ(to_hex({back, 16}), pt_hex);
  }
  // The public entry point runs the process's backend.
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(to_hex({ct, 16}), ct_hex);
}

/// One CBC vector (SP 800-38A F.2): encrypt and decrypt on every backend.
void check_cbc_kat(const char* key_hex, const char* iv_hex,
                   const char* pt_hex, const char* ct_hex) {
  const auto key = from_hex(key_hex);
  const auto iv = from_hex(iv_hex);
  const auto pt = from_hex(pt_hex);
  const crypto::Aes aes(key);
  for (const auto* be : backends()) {
    SCOPED_TRACE(be->name);
    util::Bytes ct(pt.size());
    be->cbc_encrypt(aes.schedule(), iv.data(), 1, pt.size(), pt.data(),
                    ct.data());
    EXPECT_EQ(to_hex(ct), ct_hex);  // F.2.1 / F.2.5
    util::Bytes back(ct.size());
    be->cbc_decrypt(aes.schedule(), iv.data(), 1, ct.size(), ct.data(),
                    back.data());
    EXPECT_EQ(back, pt);  // F.2.2 / F.2.6
  }
  util::Bytes ct(pt.size());
  crypto::cbc_encrypt(aes, iv, pt, ct);
  EXPECT_EQ(to_hex(ct), ct_hex);
  util::Bytes back(pt.size());
  crypto::cbc_decrypt(aes, iv, ct, back);
  EXPECT_EQ(back, pt);
}

constexpr const char* kSp80038aPlaintext =
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710";

}  // namespace

// ---- AES (FIPS-197 Appendix C) ------------------------------------------------

TEST(Aes, Fips197Aes128) {  // C.1
  check_block_kat("000102030405060708090a0b0c0d0e0f",
                  "00112233445566778899aabbccddeeff",
                  "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes, Fips197Aes192) {  // C.2
  check_block_kat("000102030405060708090a0b0c0d0e0f1011121314151617",
                  "00112233445566778899aabbccddeeff",
                  "dda97ca4864cdfe06eaf70a0ec0d7191");
}

TEST(Aes, Fips197Aes256) {  // C.3
  check_block_kat(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
      "00112233445566778899aabbccddeeff", "8ea2b7ca516745bfeafc49904b496089");
}

TEST(Aes, RejectsBadKeySizes) {
  const util::Bytes k(17, 0);
  EXPECT_THROW(crypto::Aes aes(k), util::CryptoError);
  const util::Bytes k2(8, 0);
  EXPECT_THROW(crypto::Aes aes(k2), util::CryptoError);
}

TEST(Aes, InPlaceRoundTrip) {
  const auto key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  crypto::Aes aes(key);
  std::uint8_t orig[16];
  for (int i = 0; i < 16; ++i) orig[i] = static_cast<std::uint8_t>(i * 7);
  for (const auto* be : backends()) {
    SCOPED_TRACE(be->name);
    std::uint8_t buf[16];
    std::memcpy(buf, orig, 16);
    be->ecb_encrypt(aes.schedule(), buf, buf, 1);
    EXPECT_NE(std::memcmp(buf, orig, 16), 0);
    be->ecb_decrypt(aes.schedule(), buf, buf, 1);
    EXPECT_EQ(std::memcmp(buf, orig, 16), 0);
  }
  std::uint8_t buf[16];
  std::memcpy(buf, orig, 16);
  aes.encrypt_block(buf, buf);
  aes.decrypt_block(buf, buf);
  EXPECT_EQ(std::memcmp(buf, orig, 16), 0);
}

// ---- CBC (NIST SP 800-38A F.2) ---------------------------------------------

TEST(Modes, CbcAes128Nist) {  // F.2.1, F.2.2
  check_cbc_kat("2b7e151628aed2a6abf7158809cf4f3c",
                "000102030405060708090a0b0c0d0e0f", kSp80038aPlaintext,
                "7649abac8119b246cee98e9b12e9197d"
                "5086cb9b507219ee95db113a917678b2"
                "73bed6b8e3c1743b7116e69e22229516"
                "3ff1caa1681fac09120eca307586e1a7");
}

TEST(Modes, CbcAes256Nist) {  // F.2.5, F.2.6
  check_cbc_kat(
      "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
      "000102030405060708090a0b0c0d0e0f", kSp80038aPlaintext,
      "f58c4c04d6e5f1ba779eabfb5f7bfbd6"
      "9cfc4e967edb808d679f777bc6702c7d"
      "39f23369a9d9bacfa530e26304231461"
      "b2eb05e2c39be9fcda6c19078c6a9d1b");
}

// ---- CTR (NIST SP 800-38A F.5) ---------------------------------------------

TEST(Modes, CtrAes128Nist) {
  const auto key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const auto nonce = from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  const auto pt = from_hex("6bc1bee22e409f96e93d7e117393172a");
  crypto::Aes aes(key);
  util::Bytes ct(pt.size());
  crypto::ctr_xcrypt(aes, nonce, pt, ct);
  EXPECT_EQ(to_hex(ct), "874d6191b620e3261bef6864990db6ce");
}

// ---- XTS (IEEE 1619 / XTS-AES-128 vector 4) -----------------------------------

TEST(Modes, XtsAes128Ieee1619) {
  // Vector 4 from IEEE 1619-2007 (data unit sequence number 0).
  const auto key = from_hex(
      "27182818284590452353602874713526"
      "31415926535897932384626433832795");
  const auto pt = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
      "202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f"
      "404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f"
      "606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f"
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f"
      "a0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebf"
      "c0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedf"
      "e0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
      "202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f"
      "404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f"
      "606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f"
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f"
      "a0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebf"
      "c0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedf"
      "e0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  for (const auto* be : backends()) {
    SCOPED_TRACE(be->name);
    const crypto::XtsCipher xts(key, *be);
    util::Bytes ct(pt.size());
    xts.encrypt_range(0, pt.size(), pt, ct);
    EXPECT_EQ(to_hex({ct.data(), 32}),
              "27a7479befa1d476489f308cd4cfa6e2"
              "a96e4bbe3208ff25287dd3819616e89c");
    util::Bytes back(pt.size());
    xts.decrypt_range(0, ct.size(), ct, back);
    EXPECT_EQ(back, pt);
  }
}

TEST(Modes, XtsDifferentSectorsDiffer) {
  const util::Bytes key(32, 0x11);
  crypto::XtsCipher xts(key);
  const util::Bytes pt(512, 0xAB);
  util::Bytes c0(512), c1(512);
  xts.encrypt_range(0, pt.size(), pt, c0);
  xts.encrypt_range(1, pt.size(), pt, c1);
  EXPECT_NE(c0, c1);
}

// ---- ESSIV ------------------------------------------------------------------

TEST(Modes, EssivRoundTripAndSectorSensitivity) {
  const util::Bytes key(16, 0x42);
  crypto::CbcEssivCipher essiv(key);
  util::Bytes pt(512);
  for (std::size_t i = 0; i < pt.size(); ++i) {
    pt[i] = static_cast<std::uint8_t>(i);
  }
  util::Bytes ct(512), back(512);
  essiv.encrypt_range(7, pt.size(), pt, ct);
  EXPECT_NE(ct, pt);
  essiv.decrypt_range(7, ct.size(), ct, back);
  EXPECT_EQ(back, pt);
  // Decrypting with the wrong sector number must not yield the plaintext.
  essiv.decrypt_range(8, ct.size(), ct, back);
  EXPECT_NE(back, pt);
}

TEST(Modes, CiphertextLooksRandom) {
  // The deniability argument requires ciphertext ~ random noise.
  const util::Bytes key(16, 0x5A);
  crypto::CbcEssivCipher essiv(key);
  const util::Bytes pt(4096, 0);  // extreme structure: all zeros
  util::Bytes ct(4096);
  essiv.encrypt_range(3, pt.size(), pt, ct);
  EXPECT_TRUE(util::looks_random(ct));
}

// ---- SHA (FIPS 180-4 / NIST examples) -------------------------------------------

TEST(Sha, Sha256Abc) {
  EXPECT_EQ(to_hex(crypto::Sha256::digest(util::bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha, Sha256Empty) {
  EXPECT_EQ(to_hex(crypto::Sha256::digest({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha, Sha256TwoBlocks) {
  EXPECT_EQ(
      to_hex(crypto::Sha256::digest(util::bytes_of(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha, Sha256MillionA) {
  crypto::Sha256 h;
  const util::Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  util::Bytes out(32);
  h.finish(out.data());
  EXPECT_EQ(to_hex(out),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha, Sha1Abc) {
  EXPECT_EQ(to_hex(crypto::Sha1::digest(util::bytes_of("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha, Sha1Empty) {
  EXPECT_EQ(to_hex(crypto::Sha1::digest({})),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

// ---- HMAC (RFC 2202 / RFC 4231) ---------------------------------------------------

TEST(Hmac, Rfc4231Case1Sha256) {
  const util::Bytes key(20, 0x0b);
  const auto mac =
      crypto::hmac(crypto::HashAlg::kSha256, key, util::bytes_of("Hi There"));
  EXPECT_EQ(to_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc2202Case2Sha1) {
  const auto mac =
      crypto::hmac(crypto::HashAlg::kSha1, util::bytes_of("Jefe"),
                   util::bytes_of("what do ya want for nothing?"));
  EXPECT_EQ(to_hex(mac), "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  const util::Bytes key(131, 0xaa);  // longer than the SHA-256 block
  const auto mac = crypto::hmac(
      crypto::HashAlg::kSha256, key,
      util::bytes_of("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(to_hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// ---- PBKDF2 (RFC 6070) --------------------------------------------------------------

TEST(Pbkdf2, Rfc6070Iter1) {
  const auto dk =
      crypto::pbkdf2(crypto::HashAlg::kSha1, util::bytes_of("password"),
                     util::bytes_of("salt"), 1, 20);
  EXPECT_EQ(to_hex(dk), "0c60c80f961f0e71f3a9b524af6012062fe037a6");
}

TEST(Pbkdf2, Rfc6070Iter4096) {
  const auto dk =
      crypto::pbkdf2(crypto::HashAlg::kSha1, util::bytes_of("password"),
                     util::bytes_of("salt"), 4096, 20);
  EXPECT_EQ(to_hex(dk), "4b007901b765489abead49d926f721d065a429c1");
}

TEST(Pbkdf2, Rfc6070LongInputs) {
  const auto dk = crypto::pbkdf2(
      crypto::HashAlg::kSha1,
      util::bytes_of("passwordPASSWORDpassword"),
      util::bytes_of("saltSALTsaltSALTsaltSALTsaltSALTsalt"), 4096, 25);
  EXPECT_EQ(to_hex(dk), "3d2eec4fe41c849b80c8d83662c0e44a8b291a964cf2f07038");
}

TEST(Pbkdf2, RejectsDegenerateParams) {
  EXPECT_THROW(crypto::pbkdf2(crypto::HashAlg::kSha1, {}, {}, 0, 16),
               util::CryptoError);
  EXPECT_THROW(crypto::pbkdf2(crypto::HashAlg::kSha1, {}, {}, 1, 0),
               util::CryptoError);
}

// ---- ChaCha20 (RFC 8439 §2.3.2) -------------------------------------------------------

TEST(ChaCha20, Rfc8439BlockVector) {
  const auto key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const auto nonce = from_hex("000000090000004a00000000");
  std::uint8_t out[64];
  crypto::chacha20_block(key.data(), 1, nonce.data(), out);
  EXPECT_EQ(to_hex({out, 64}),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(SecureRandom, DeterministicPerSeed) {
  crypto::SecureRandom a(42), b(42), c(43);
  const auto ba = a.bytes(256);
  const auto bb = b.bytes(256);
  const auto bc = c.bytes(256);
  EXPECT_EQ(ba, bb);
  EXPECT_NE(ba, bc);
}

TEST(SecureRandom, OutputLooksRandom) {
  crypto::SecureRandom r(7);
  EXPECT_TRUE(util::looks_random(r.bytes(8192)));
}

TEST(SecureRandom, FillMatchesTheGenericWordStream) {
  // SecureRandom::fill takes the bulk keystream copy only where it yields
  // exactly the bytes of Rng::fill's word loop. Interleave every way of
  // drawing, with odd lengths and misaligned positions, against a twin
  // that draws every fill through the generic loop.
  crypto::SecureRandom rng(1234), ref(1234);
  util::Xoshiro256 script(99);
  for (int step = 0; step < 2000; ++step) {
    const std::size_t len = script.next_below(150);
    util::Bytes got(len), want(len);
    switch (script.next_below(3)) {
      case 0:
        ASSERT_EQ(rng.next_u64(), ref.next_u64()) << "step " << step;
        continue;
      case 1:
        rng.fill(got);
        ref.util::Rng::fill(want);
        break;
      default:
        rng.fill_bytes(got);
        ref.fill_bytes(want);
        break;
    }
    ASSERT_EQ(got, want) << "step " << step << ", length " << len;
  }
}

TEST(SecureRandom, NoiseIndistinguishableFromCiphertext) {
  // Core deniability premise (Sec. IV-A, question 2): dummy noise and FDE
  // ciphertext must pass the same randomness battery.
  crypto::SecureRandom r(11);
  const auto noise = r.bytes(4096);
  const util::Bytes key(16, 0x33);
  crypto::CbcEssivCipher essiv(key);
  util::Bytes pt(4096, 0x00);
  util::Bytes ct(4096);
  essiv.encrypt_range(9, pt.size(), pt, ct);
  EXPECT_TRUE(util::looks_random(noise));
  EXPECT_TRUE(util::looks_random(ct));
  // Identical statistics class: both entropy values within noise floor.
  EXPECT_NEAR(util::shannon_entropy(noise), util::shannon_entropy(ct), 0.2);
}

// ---- constant-time compare ----------------------------------------------------------------

TEST(Bytes, CtEqualBasics) {
  const auto a = util::bytes_of("secret-password");
  const auto b = util::bytes_of("secret-password");
  const auto c = util::bytes_of("secret-passw0rd");
  EXPECT_TRUE(util::ct_equal(a, b));
  EXPECT_FALSE(util::ct_equal(a, c));
  EXPECT_FALSE(util::ct_equal(a, util::bytes_of("short")));
}

TEST(Bytes, HexRoundTrip) {
  const auto data = from_hex("00ff10ab");
  EXPECT_EQ(to_hex(data), "00ff10ab");
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}
