// Differential tests of the hardware AES backend against the T-table
// reference: ESSIV-CBC and XTS sector ranges must be byte-identical for
// every key size, run length, sector number and buffer placement, and
// dm::CryptTarget must write the reference ciphertext whether its crypto
// worker pool shards the range or not. The hardware cases skip on CPUs
// without AES instructions.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "blockdev/block_device.hpp"
#include "blockdev/timed_device.hpp"
#include "crypto/aes_backend.hpp"
#include "crypto/crypto_pool.hpp"
#include "crypto/modes.hpp"
#include "crypto/random.hpp"
#include "dm/crypt_target.hpp"
#include "util/sim_clock.hpp"

using namespace mobiceal;

namespace {

struct Case {
  const char* spec;
  std::size_t key_bytes;
};

/// Every key size of both sector ciphers.
constexpr Case kCases[] = {
    {"aes-cbc-essiv:sha256", 16}, {"aes-cbc-essiv:sha256", 24},
    {"aes-cbc-essiv:sha256", 32}, {"aes-xts-plain64", 32},
    {"aes-xts-plain64", 64}};

constexpr std::uint64_t kFirstSectors[] = {0, 1'000'003, (1ull << 32) - 3,
                                           (1ull << 63) + 5, ~0ull - 20};

std::unique_ptr<crypto::SectorCipher> bound(
    const Case& c, util::ByteSpan key, const crypto::detail::AesBackend& be) {
  if (std::string(c.spec) == "aes-xts-plain64") {
    return std::make_unique<crypto::XtsCipher>(key, be);
  }
  return std::make_unique<crypto::CbcEssivCipher>(key, be);
}

#define REQUIRE_HARDWARE_AES(hw)                                   \
  const crypto::detail::AesBackend* hw =                           \
      crypto::detail::hardware_backend();                          \
  if (!hw) {                                                       \
    GTEST_SKIP() << "this CPU has no AES instructions; only the "  \
                    "software backend exists";                     \
  }

/// Encrypts `pt` on both backends and checks that the ciphertexts agree
/// and that each backend decrypts the other's.
void expect_parity(const crypto::SectorCipher& sw,
                   const crypto::SectorCipher& hw, std::uint64_t first,
                   std::size_t sector_size, const util::Bytes& pt) {
  util::Bytes sw_ct(pt.size()), hw_ct(pt.size());
  sw.encrypt_range(first, sector_size, pt, sw_ct);
  hw.encrypt_range(first, sector_size, pt, hw_ct);
  ASSERT_EQ(hw_ct, sw_ct);
  util::Bytes back(pt.size());
  hw.decrypt_range(first, sector_size, sw_ct, back);
  ASSERT_EQ(back, pt);
  sw.decrypt_range(first, sector_size, hw_ct, back);
  ASSERT_EQ(back, pt);
}

}  // namespace

TEST(SectorCipherParity, EveryKeySizeSectorCountAndSectorNumber) {
  REQUIRE_HARDWARE_AES(hw);
  crypto::SecureRandom rng(5);
  for (const Case& c : kCases) {
    const util::Bytes key = rng.bytes(c.key_bytes);
    const auto sw = bound(c, key, crypto::detail::software_backend());
    const auto hwc = bound(c, key, *hw);
    for (const std::uint64_t first : kFirstSectors) {
      // 1 to 64 sectors, across and off the eight-way interleave.
      for (std::size_t n = 1; n <= 64; ++n) {
        SCOPED_TRACE(testing::Message() << c.spec << " key " << c.key_bytes
                                        << " first " << first << " n " << n);
        expect_parity(*sw, *hwc, first, blockdev::kSectorSize,
                      rng.bytes(n * blockdev::kSectorSize));
      }
      // Sector sizes shorter and longer than one 8-block group.
      for (const std::size_t sector_size : {16, 48, 4096}) {
        for (const std::size_t n : {1, 7, 8, 9}) {
          SCOPED_TRACE(testing::Message()
                       << c.spec << " key " << c.key_bytes << " first "
                       << first << " sector size " << sector_size << " n "
                       << n);
          expect_parity(*sw, *hwc, first, sector_size,
                        rng.bytes(n * sector_size));
        }
      }
    }
  }
}

TEST(SectorCipherParity, InPlaceAndUnalignedBuffers) {
  REQUIRE_HARDWARE_AES(hw);
  crypto::SecureRandom rng(6);
  constexpr std::size_t kSectors = 19;  // two full 8-sector groups and 3
  constexpr std::size_t kLen = kSectors * blockdev::kSectorSize;
  constexpr std::uint64_t kFirst = 77;
  for (const Case& c : kCases) {
    SCOPED_TRACE(testing::Message() << c.spec << " key " << c.key_bytes);
    const util::Bytes key = rng.bytes(c.key_bytes);
    const util::Bytes pt = rng.bytes(kLen);
    const auto ref = bound(c, key, crypto::detail::software_backend());
    util::Bytes ref_ct(kLen);
    ref->encrypt_range(kFirst, blockdev::kSectorSize, pt, ref_ct);

    for (const auto* be : {&crypto::detail::software_backend(), hw}) {
      SCOPED_TRACE(be->name);
      const auto cipher = bound(c, key, *be);
      // In place, at a 1-byte offset from the allocation.
      util::Bytes buf(kLen + 1);
      const util::MutByteSpan at1{buf.data() + 1, kLen};
      std::copy(pt.begin(), pt.end(), at1.begin());
      cipher->encrypt_range(kFirst, blockdev::kSectorSize, at1, at1);
      EXPECT_TRUE(std::equal(ref_ct.begin(), ref_ct.end(), at1.begin()));
      cipher->decrypt_range(kFirst, blockdev::kSectorSize, at1, at1);
      EXPECT_TRUE(std::equal(pt.begin(), pt.end(), at1.begin()));

      // Out of place, source aligned and destination 1 byte off, then back.
      util::Bytes out(kLen + 1);
      const util::MutByteSpan out1{out.data() + 1, kLen};
      cipher->encrypt_range(kFirst, blockdev::kSectorSize, pt, out1);
      EXPECT_TRUE(std::equal(ref_ct.begin(), ref_ct.end(), out1.begin()));
      util::Bytes back(kLen);
      cipher->decrypt_range(kFirst, blockdev::kSectorSize, out1, back);
      EXPECT_EQ(back, pt);
    }
  }
}

TEST(SectorCipherParity, CryptTargetOnFourWorkersMatchesInline) {
  // The process backend (hardware here) on four crypto worker threads and
  // inline, at queue depth 1 (one range call) and 8 (pipelined segments,
  // reads decrypted in place), against the software reference.
  REQUIRE_HARDWARE_AES(hw);
  ASSERT_EQ(&crypto::detail::active_backend(), hw);
  constexpr std::uint64_t kFirst = 5, kBlocks = 200;
  const std::size_t bs = blockdev::kDefaultBlockSize;
  crypto::SecureRandom rng(8);
  for (const Case& c : kCases) {
    const util::Bytes key = rng.bytes(c.key_bytes);
    const util::Bytes pt = rng.bytes(kBlocks * bs);
    util::Bytes ref(pt.size());
    bound(c, key, crypto::detail::software_backend())
        ->encrypt_range(kFirst * (bs / blockdev::kSectorSize),
                        blockdev::kSectorSize, pt, ref);
    for (const std::uint32_t depth : {1u, 8u}) {
      for (const unsigned threads : {0u, 4u}) {
        SCOPED_TRACE(testing::Message()
                     << c.spec << " key " << c.key_bytes << " depth "
                     << depth << " threads " << threads);
        auto clock = std::make_shared<util::SimClock>();
        auto mem = std::make_shared<blockdev::MemBlockDevice>(256);
        auto timed = std::make_shared<blockdev::TimedDevice>(
            mem, blockdev::TimingModel{}, clock);
        timed->set_queue_depth(depth);
        dm::CryptTarget crypt(
            timed, c.spec, key, clock, dm::CryptCpuModel::snapdragon_s4(),
            std::make_shared<crypto::CryptoWorkerPool>(threads));
        crypt.write_blocks(kFirst, pt);
        EXPECT_TRUE(std::equal(ref.begin(), ref.end(),
                               mem->raw().begin() + kFirst * bs));
        util::Bytes rd(pt.size());
        crypt.read_blocks(kFirst, kBlocks, rd);
        EXPECT_EQ(rd, pt);
      }
    }
  }
}
