#include "crypto/random.hpp"

#include <cstring>

#include "crypto/sha.hpp"
#include "util/error.hpp"

namespace mobiceal::crypto {

namespace {
inline std::uint32_t rotl32(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

inline void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                          std::uint32_t& d) {
  a += b;
  d ^= a;
  d = rotl32(d, 16);
  c += d;
  b ^= c;
  b = rotl32(b, 12);
  a += b;
  d ^= a;
  d = rotl32(d, 8);
  c += d;
  b ^= c;
  b = rotl32(b, 7);
}
}  // namespace

void chacha20_block(const std::uint8_t key[32], std::uint32_t counter,
                    const std::uint8_t nonce[12], std::uint8_t out[64]) {
  std::uint32_t state[16];
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) {
    state[4 + i] = util::load_le<std::uint32_t>(key + 4 * i);
  }
  state[12] = counter;
  for (int i = 0; i < 3; ++i) {
    state[13 + i] = util::load_le<std::uint32_t>(nonce + 4 * i);
  }

  std::uint32_t x[16];
  std::memcpy(x, state, sizeof(x));
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) {
    util::store_le<std::uint32_t>(out + 4 * i, x[i] + state[i]);
  }
}

SecureRandom::SecureRandom(std::uint64_t seed) {
  std::uint8_t seed_bytes[8];
  util::store_le<std::uint64_t>(seed_bytes, seed);
  const util::Bytes k = Sha256::digest({seed_bytes, 8});
  std::memcpy(key_.data(), k.data(), 32);
}

SecureRandom::SecureRandom(util::ByteSpan key32) {
  if (key32.size() != 32) {
    throw util::CryptoError("SecureRandom: key must be 32 bytes");
  }
  std::memcpy(key_.data(), key32.data(), 32);
}

void SecureRandom::refill() {
  chacha20_block(key_.data(), counter_, nonce_.data(), block_.data());
  ++counter_;
  if (counter_ == 0) {
    // Counter wrapped (16 ZiB of output): rekey by hashing the current key.
    const util::Bytes k = Sha256::digest(key_);
    std::memcpy(key_.data(), k.data(), 32);
  }
  pos_ = 0;
}

std::uint64_t SecureRandom::next_u64() {
  if (pos_ + 8 > 64) refill();
  const std::uint64_t v = util::load_le<std::uint64_t>(block_.data() + pos_);
  pos_ += 8;
  return v;
}

void SecureRandom::fill(util::MutByteSpan out) {
  if (pos_ % 8 == 0 && out.size() % 8 == 0) {
    fill_bytes(out);
  } else {
    Rng::fill(out);
  }
}

void SecureRandom::fill_bytes(util::MutByteSpan out) {
  std::size_t off = 0;
  while (off < out.size()) {
    if (pos_ == 64) refill();
    const std::size_t take = std::min(out.size() - off, 64 - pos_);
    std::memcpy(out.data() + off, block_.data() + pos_, take);
    pos_ += take;
    off += take;
  }
}

util::Bytes SecureRandom::bytes(std::size_t n) {
  util::Bytes out(n);
  fill_bytes(out);
  return out;
}

}  // namespace mobiceal::crypto
