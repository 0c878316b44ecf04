// Crash-consistency properties of the thin pool's transactional metadata
// (DESIGN.md §6.9): the superblock is the atomic commit point, faults
// mid-commit never corrupt the previous state, and MobiCeal survives power
// loss at arbitrary moments.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "blockdev/block_device.hpp"
#include "blockdev/fault_injector.hpp"
#include "blockdev/recording_device.hpp"
#include "core/mobiceal.hpp"
#include "thin/thin_pool.hpp"
#include "util/error.hpp"

using namespace mobiceal;
using blockdev::FaultInjectedDevice;
using blockdev::FaultInjector;
using blockdev::InjectedFault;
using blockdev::IoOp;
using blockdev::MemBlockDevice;
using blockdev::RecordingDevice;

namespace {
util::Bytes pattern(std::size_t n, std::uint8_t seed) {
  util::Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + i * 3);
  }
  return out;
}

// Wraps `raw` in a fault injector whose write budget starts disarmed; the
// test arms it with injector->rearm_write_budget(n) just before the commit.
std::shared_ptr<FaultInjectedDevice> budgeted(
    std::shared_ptr<MemBlockDevice> raw) {
  return std::make_shared<FaultInjectedDevice>(
      std::move(raw), std::make_shared<FaultInjector>(blockdev::FaultPlan{}));
}

// Zeroes the alloc-shards field (offset 60, 12 bytes incl. checksum) in
// every superblock copy so a 1-shard and an N-shard metadata image can be
// compared bit-for-bit — the equivalence idiom of alloc_sharding_test.cpp.
void mask_alloc_shards_field(util::Bytes& image) {
  static constexpr char kMagic[8] = {'T', 'H', 'I', 'N', 'P', 'O', 'O', 'L'};
  if (image.size() < 72) return;
  for (std::size_t off = 0; off + 72 <= image.size(); ++off) {
    if (std::memcmp(image.data() + off, kMagic, 8) == 0) {
      std::memset(image.data() + off + 60, 0, 12);
    }
  }
}
}  // namespace

TEST(CrashConsistency, CommitWritesSuperblockLast) {
  auto raw = std::make_shared<MemBlockDevice>(256);
  auto rec = std::make_shared<RecordingDevice>(raw);
  auto data = std::make_shared<MemBlockDevice>(1024);
  thin::ThinPool::Config cfg;
  cfg.chunk_blocks = 4;
  cfg.max_volumes = 4;
  cfg.cpu = thin::ThinCpuModel::zero();
  auto pool = thin::ThinPool::format(rec, data, cfg);
  pool->create_thin(0, 32);
  auto vol = pool->open_thin(0);
  vol->write_block(0, pattern(4096, 1));

  rec->clear();
  pool->commit();
  const auto& ops = rec->ops();
  ASSERT_FALSE(ops.empty());
  // Find the last write: it must be block 0 (the superblock) alone, and
  // the only write to block 0 in the whole commit.
  std::size_t sb_writes = 0;
  std::size_t last_write_idx = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].op == IoOp::kWrite) {
      last_write_idx = i;
      if (ops[i].first == 0) ++sb_writes;
    }
  }
  EXPECT_EQ(sb_writes, 1u);
  EXPECT_EQ(ops[last_write_idx].first, 0u);
  EXPECT_EQ(ops[last_write_idx].count, 1u);
  // And a barrier follows the superblock.
  bool flush_after = false;
  for (std::size_t i = last_write_idx + 1; i < ops.size(); ++i) {
    if (ops[i].op == IoOp::kFlush) flush_after = true;
  }
  EXPECT_TRUE(flush_after);
}

TEST(CrashConsistency, FaultDuringCommitPreservesOldState) {
  // Inject a fault partway through the metadata write-out: because the
  // superblock goes last, reopening must recover the *previous* txn.
  auto raw = std::make_shared<MemBlockDevice>(256);
  auto data = std::make_shared<MemBlockDevice>(1024);
  thin::ThinPool::Config cfg;
  cfg.chunk_blocks = 4;
  cfg.max_volumes = 4;
  cfg.cpu = thin::ThinCpuModel::zero();

  const auto committed = pattern(4096, 7);
  {
    auto pool = thin::ThinPool::format(raw, data, cfg);
    pool->create_thin(0, 32);
    auto vol = pool->open_thin(0);
    vol->write_block(0, committed);
    pool->commit();  // txn 1: one mapped chunk
  }

  // Re-open through a faulty wrapper and crash mid-commit.
  auto faulty = budgeted(raw);
  {
    auto pool = thin::ThinPool::open(faulty, data);
    auto vol = pool->open_thin(0);
    vol->write_block(8, pattern(4096, 9));   // second chunk, uncommitted
    // Fail on the 3rd metadata write.
    faulty->injector()->rearm_write_budget(2);
    EXPECT_THROW(pool->commit(), InjectedFault);
  }

  // Recovery: the pool reopens at txn 1 with exactly one mapped chunk.
  auto pool = thin::ThinPool::open(raw, data);
  EXPECT_EQ(pool->mapped_chunks(0), 1u);
  auto vol = pool->open_thin(0);
  util::Bytes r(4096);
  vol->read_block(0, r);
  EXPECT_EQ(r, committed);
  vol->read_block(8, r);
  EXPECT_TRUE(std::all_of(r.begin(), r.end(),
                          [](std::uint8_t b) { return b == 0; }));
}

// Parameterized: crash the metadata device at many different points during
// a commit; every crash point must leave a recoverable pool whose state is
// EITHER the old txn or the new one — never anything else.
class CommitCrashSweep : public ::testing::TestWithParam<int> {};

TEST_P(CommitCrashSweep, EveryCrashPointRecoversAtomically) {
  auto raw = std::make_shared<MemBlockDevice>(256);
  auto data = std::make_shared<MemBlockDevice>(1024);
  thin::ThinPool::Config cfg;
  cfg.chunk_blocks = 4;
  cfg.max_volumes = 4;
  cfg.cpu = thin::ThinCpuModel::zero();
  {
    auto pool = thin::ThinPool::format(raw, data, cfg);
    pool->create_thin(0, 32);
    auto vol = pool->open_thin(0);
    vol->write_block(0, pattern(4096, 1));
    pool->commit();  // old state: 1 chunk
  }
  auto faulty = budgeted(raw);
  bool crashed = false;
  {
    auto pool = thin::ThinPool::open(faulty, data);
    auto vol = pool->open_thin(0);
    vol->write_block(8, pattern(4096, 2));
    vol->write_block(16, pattern(4096, 3));  // new state: 3 chunks
    faulty->injector()->rearm_write_budget(GetParam());
    try {
      pool->commit();
    } catch (const InjectedFault&) {
      crashed = true;
    }
  }
  auto pool = thin::ThinPool::open(raw, data);
  const auto mapped = pool->mapped_chunks(0);
  if (crashed) {
    // Atomicity: old XOR new, nothing in between... the superblock decides.
    EXPECT_TRUE(mapped == 1u || mapped == 3u) << "mapped=" << mapped;
  } else {
    EXPECT_EQ(mapped, 3u);
  }
  // Free-space accounting must always be consistent with the mappings.
  EXPECT_EQ(pool->free_chunks(), pool->nr_chunks() - mapped);
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, CommitCrashSweep,
                         ::testing::Range(0, 12));

// The sharded allocator (superblock v4) must not change the crash story:
// the same workload crashed at the same metadata write leaves a 4-shard
// pool bit-identical (modulo the alloc-shards superblock field) to the
// 1-shard pool after recovery, at every crash point.
class ShardedCommitCrashSweep : public ::testing::TestWithParam<int> {};

TEST_P(ShardedCommitCrashSweep, FourShardRecoveryMatchesOneShardImage) {
  util::Bytes images[2];
  std::uint64_t mapped[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    auto raw = std::make_shared<MemBlockDevice>(256);
    auto data = std::make_shared<MemBlockDevice>(1024);
    thin::ThinPool::Config cfg;
    cfg.chunk_blocks = 4;
    cfg.max_volumes = 4;
    cfg.cpu = thin::ThinCpuModel::zero();
    cfg.alloc_shards = (i == 0) ? 1 : 4;
    {
      auto pool = thin::ThinPool::format(raw, data, cfg);
      pool->create_thin(0, 32);
      auto vol = pool->open_thin(0);
      vol->write_block(0, pattern(4096, 1));
      pool->commit();  // old state: 1 chunk
    }
    auto faulty = budgeted(raw);
    {
      // Mid-transaction crash: two more chunks mapped but the commit dies
      // at the GetParam()-th metadata write.
      auto pool = thin::ThinPool::open(faulty, data);
      auto vol = pool->open_thin(0);
      vol->write_block(8, pattern(4096, 2));
      vol->write_block(16, pattern(4096, 3));
      faulty->injector()->rearm_write_budget(GetParam());
      try {
        pool->commit();
      } catch (const InjectedFault&) {
      }
    }
    // Reopen replay: superblock v4 restores the shard count; recovery must
    // land on old XOR new with consistent accounting either way.
    auto pool = thin::ThinPool::open(raw, data);
    EXPECT_EQ(pool->alloc_shards(), cfg.alloc_shards);
    mapped[i] = pool->mapped_chunks(0);
    EXPECT_TRUE(mapped[i] == 1u || mapped[i] == 3u) << "mapped=" << mapped[i];
    EXPECT_EQ(pool->free_chunks(), pool->nr_chunks() - mapped[i]);
    EXPECT_TRUE(pool->check_consistency());
    images[i] = raw->snapshot();
  }
  EXPECT_EQ(mapped[0], mapped[1]);
  mask_alloc_shards_field(images[0]);
  mask_alloc_shards_field(images[1]);
  EXPECT_EQ(images[0], images[1]);
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, ShardedCommitCrashSweep,
                         ::testing::Range(0, 12));

TEST(CrashConsistency, MobiCealSurvivesPowerLossDuringPublicUse) {
  // Full-stack: pull the plug (drop the device objects without reboot())
  // mid-session; the device must re-attach and boot from the last commit.
  auto disk = std::make_shared<MemBlockDevice>(16384);
  core::MobiCealDevice::Config cfg;
  cfg.num_volumes = 4;
  cfg.chunk_blocks = 4;
  cfg.kdf_iterations = 16;
  cfg.fs_inode_count = 128;
  const auto saved = pattern(60000, 5);
  {
    auto dev = core::MobiCealDevice::initialize(disk, cfg, "pub", {"hid"});
    dev->boot("pub");
    dev->data_fs().write_file("/durable.bin", saved);
    dev->data_fs().sync();  // commit point
    dev->data_fs().write_file("/lost.bin", pattern(60000, 6));
    // power loss: no sync, no reboot
  }
  auto dev = core::MobiCealDevice::attach(disk, cfg);
  ASSERT_EQ(dev->boot("pub"), core::AuthResult::kPublic);
  EXPECT_EQ(dev->data_fs().read_file("/durable.bin"), saved);
}

TEST(CrashConsistency, ShardedAllocatorFullStackSurvivesPowerLoss) {
  // Same plug-pull as above but with the 4-shard allocator: superblock v4
  // replay must restore the sharded pool to the last commit.
  auto disk = std::make_shared<MemBlockDevice>(16384);
  core::MobiCealDevice::Config cfg;
  cfg.num_volumes = 4;
  cfg.chunk_blocks = 4;
  cfg.kdf_iterations = 16;
  cfg.fs_inode_count = 128;
  cfg.alloc_shards = 4;
  const auto saved = pattern(60000, 15);
  {
    auto dev = core::MobiCealDevice::initialize(disk, cfg, "pub", {"hid"});
    dev->boot("pub");
    dev->data_fs().write_file("/durable.bin", saved);
    dev->data_fs().sync();  // commit point
    dev->data_fs().write_file("/lost.bin", pattern(60000, 16));
    // power loss: no sync, no reboot
  }
  auto dev = core::MobiCealDevice::attach(disk, cfg);
  ASSERT_EQ(dev->boot("pub"), core::AuthResult::kPublic);
  EXPECT_EQ(dev->data_fs().read_file("/durable.bin"), saved);
  EXPECT_EQ(dev->pool().alloc_shards(), 4u);
}

TEST(CrashConsistency, MobiCealHiddenDataSurvivesCrashInPublicMode) {
  // The dangerous interleaving: hidden data committed, then a crash during
  // later public-mode dummy traffic. Hidden chunks must be untouched.
  auto disk = std::make_shared<MemBlockDevice>(16384);
  core::MobiCealDevice::Config cfg;
  cfg.num_volumes = 4;
  cfg.chunk_blocks = 4;
  cfg.kdf_iterations = 16;
  cfg.fs_inode_count = 128;
  cfg.dummy.lambda = 0.5;
  const auto secret = pattern(100000, 8);
  {
    auto dev = core::MobiCealDevice::initialize(disk, cfg, "pub", {"hid"});
    dev->boot("hid");
    dev->data_fs().write_file("/secret.bin", secret);
    dev->reboot();
    dev->boot("pub");
    for (int i = 0; i < 10; ++i) {
      dev->data_fs().write_file("/p" + std::to_string(i),
                                pattern(40000, static_cast<std::uint8_t>(i)));
    }
    // crash without sync
  }
  auto dev = core::MobiCealDevice::attach(disk, cfg);
  ASSERT_EQ(dev->boot("hid"), core::AuthResult::kHidden);
  EXPECT_EQ(dev->data_fs().read_file("/secret.bin"), secret);
}
