// Block-device substrate tests: all device implementations, the virtual-
// clock timing wrapper (the measurement instrument for every performance
// experiment — its accounting must be exact), and the fault-injection
// helpers.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <utility>

#include "blockdev/block_device.hpp"
#include "blockdev/fault_injector.hpp"
#include "blockdev/recording_device.hpp"
#include "blockdev/sparse_device.hpp"
#include "blockdev/timed_device.hpp"
#include "util/error.hpp"

using namespace mobiceal;
using namespace mobiceal::blockdev;

namespace {
util::Bytes pattern(std::size_t n, std::uint8_t seed) {
  util::Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed * 3 + i);
  }
  return out;
}
}  // namespace

TEST(MemDevice, RoundTripAndBounds) {
  MemBlockDevice dev(8);
  EXPECT_EQ(dev.num_blocks(), 8u);
  EXPECT_EQ(dev.size_bytes(), 8u * 4096);
  const auto w = pattern(4096, 1);
  dev.write_block(7, w);
  util::Bytes r(4096);
  dev.read_block(7, r);
  EXPECT_EQ(r, w);
  EXPECT_THROW(dev.read_block(8, r), util::IoError);
  EXPECT_THROW(dev.write_block(8, w), util::IoError);
  util::Bytes small(100);
  EXPECT_THROW(dev.read_block(0, small), util::IoError);
}

TEST(MemDevice, StartsZeroed) {
  MemBlockDevice dev(4);
  util::Bytes r(4096, 0xFF);
  dev.read_block(2, r);
  EXPECT_TRUE(std::all_of(r.begin(), r.end(),
                          [](std::uint8_t b) { return b == 0; }));
}

TEST(MemDevice, MultiBlockHelpers) {
  MemBlockDevice dev(8);
  const auto w = pattern(3 * 4096, 2);
  dev.write_blocks(2, w);
  EXPECT_EQ(dev.read_blocks(2, 3), w);
  util::Bytes odd(1000);
  EXPECT_THROW(dev.write_blocks(0, odd), util::IoError);
}

// ---- vectored I/O (batched read_blocks / write_blocks) -----------------------

TEST(VectoredIo, RangeErrorsAreDetectedBeforeAnyBlockIsTouched) {
  MemBlockDevice dev(8);
  dev.write_blocks(0, pattern(8 * 4096, 20));
  const auto before = dev.raw();

  // [6, 6+4) crosses the end: must throw and leave blocks 6..7 untouched.
  EXPECT_THROW(dev.write_blocks(6, pattern(4 * 4096, 21)), util::IoError);
  EXPECT_EQ(dev.raw(), before);

  util::Bytes out(4 * 4096, 0xEE);
  EXPECT_THROW(dev.read_blocks(6, 4, out), util::IoError);
  EXPECT_THROW(dev.read_blocks(9, 0, out), util::IoError);  // first > end
  // Buffer size must match count * block_size.
  util::Bytes short_buf(3 * 4096);
  EXPECT_THROW(dev.read_blocks(0, 4, short_buf), util::IoError);
  EXPECT_THROW(dev.write_blocks(0, util::ByteSpan{out.data(), 1000}),
               util::IoError);
}

TEST(VectoredIo, BatchedPathMatchesPerBlockLoop) {
  // Same data written two ways must produce identical devices, and the
  // batched read must equal the per-block read.
  MemBlockDevice batched(16), looped(16);
  const auto w = pattern(7 * 4096, 22);
  batched.write_blocks(3, w);
  for (std::uint64_t i = 0; i < 7; ++i) {
    looped.write_block(3 + i, {w.data() + i * 4096, 4096});
  }
  EXPECT_EQ(batched.raw(), looped.raw());

  util::Bytes fast(7 * 4096), slow(7 * 4096);
  batched.read_blocks(3, 7, fast);
  for (std::uint64_t i = 0; i < 7; ++i) {
    looped.read_block(3 + i, {slow.data() + i * 4096, 4096});
  }
  EXPECT_EQ(fast, slow);
  EXPECT_EQ(fast, w);
}

TEST(VectoredIo, OneCommandPerCallThroughLayeredDevices) {
  // A wrapper forwards a vectored call as ONE command, and read_block is a
  // one-block vectored call: both views of the same data agree.
  auto inner = std::make_shared<MemBlockDevice>(12);
  RecordingDevice layered(inner);
  const auto w = pattern(5 * 4096, 23);
  layered.write_blocks(4, w);
  ASSERT_EQ(layered.ops().size(), 1u);
  EXPECT_EQ(layered.ops()[0].first, 4u);
  EXPECT_EQ(layered.ops()[0].count, 5u);
  EXPECT_EQ(inner->read_blocks(4, 5), w);

  util::Bytes r(5 * 4096);
  for (std::uint64_t i = 0; i < 5; ++i) {
    layered.read_block(4 + i, {r.data() + i * 4096, 4096});
  }
  EXPECT_EQ(r, w);
  EXPECT_EQ(layered.commands(IoOp::kRead), 5u);
  EXPECT_EQ(layered.blocks(IoOp::kRead), 5u);
}

TEST(VectoredIo, MidRangeDeviceFaultLeavesThePrefixWritten) {
  // A lower-device fault mid-range is NOT atomic (kernel semantics): the
  // prefix before the faulting block persists, the rest is untouched.
  auto inner = std::make_shared<MemBlockDevice>(8);
  FaultPlan plan;
  plan.write_budget_blocks = 2;
  FaultInjectedDevice dev(inner, std::make_shared<FaultInjector>(plan));
  EXPECT_THROW(dev.write_blocks(0, pattern(4 * 4096, 24)), InjectedFault);
  const auto w = pattern(4 * 4096, 24);
  EXPECT_EQ(inner->read_blocks(0, 2), util::Bytes(w.begin(),
                                                  w.begin() + 2 * 4096));
  EXPECT_EQ(inner->read_blocks(2, 2), util::Bytes(2 * 4096, 0));
}

TEST(VectoredIo, FileDeviceBatchesThroughOnePreadPwrite) {
  const std::string path = "/tmp/mobiceal_filedev_vectored_test.img";
  std::remove(path.c_str());
  const auto w = pattern(6 * 4096, 25);
  {
    FileBlockDevice dev(path, 16);
    dev.write_blocks(8, w);
    dev.flush();
  }
  {
    FileBlockDevice dev(path, 16);
    EXPECT_EQ(dev.read_blocks(8, 6), w);
    EXPECT_THROW(dev.write_blocks(12, pattern(5 * 4096, 26)), util::IoError);
  }
  std::remove(path.c_str());
}

TEST(MemDevice, SnapshotIsDeepCopy) {
  MemBlockDevice dev(4);
  dev.write_block(1, pattern(4096, 3));
  const auto snap = dev.snapshot();
  dev.write_block(1, pattern(4096, 9));
  // The snapshot kept the old contents.
  EXPECT_EQ(util::Bytes(snap.begin() + 4096, snap.begin() + 8192),
            pattern(4096, 3));
}

TEST(FileDevice, PersistsToDisk) {
  const std::string path = "/tmp/mobiceal_filedev_test.img";
  std::remove(path.c_str());
  const auto w = pattern(4096, 4);
  {
    FileBlockDevice dev(path, 16);
    dev.write_block(5, w);
    dev.flush();
  }
  {
    FileBlockDevice dev(path, 16);
    util::Bytes r(4096);
    dev.read_block(5, r);
    EXPECT_EQ(r, w);
  }
  std::remove(path.c_str());
}

TEST(SparseDevice, MaterialisesOnWriteOnly) {
  SparseBlockDevice dev(1 << 20);  // 4 GiB virtual
  EXPECT_EQ(dev.materialised_blocks(), 0u);
  util::Bytes r(4096, 0xAA);
  dev.read_block(999999, r);  // untouched -> zeros, no materialisation
  EXPECT_TRUE(std::all_of(r.begin(), r.end(),
                          [](std::uint8_t b) { return b == 0; }));
  EXPECT_EQ(dev.materialised_blocks(), 0u);
  dev.write_block(999999, pattern(4096, 5));
  EXPECT_EQ(dev.materialised_blocks(), 1u);
  dev.read_block(999999, r);
  EXPECT_EQ(r, pattern(4096, 5));
}

// ---- TimedDevice: the measurement instrument ---------------------------------

TEST(TimedDevice, ChargesExactSequentialCosts) {
  auto clock = std::make_shared<util::SimClock>();
  TimingModel m;
  m.per_io_ns = 10;
  m.read_per_block_ns = 100;
  m.write_per_block_ns = 200;
  m.random_read_penalty_ns = 1000;
  m.random_write_penalty_ns = 2000;
  m.flush_ns = 5000;
  auto dev = std::make_shared<TimedDevice>(
      std::make_shared<MemBlockDevice>(64), m, clock);

  const auto b = pattern(4096, 6);
  dev->write_block(0, b);  // first access: random penalty
  EXPECT_EQ(clock->now(), 10u + 200 + 2000);
  dev->write_block(1, b);  // sequential
  EXPECT_EQ(clock->now(), 2210u + 210);
  util::Bytes r(4096);
  dev->read_block(2, r);  // sequential to previous access
  EXPECT_EQ(clock->now(), 2420u + 110);
  dev->read_block(10, r);  // random read
  EXPECT_EQ(clock->now(), 2530u + 110 + 1000);
  dev->flush();
  EXPECT_EQ(clock->now(), 3640u + 5000);
}

TEST(TimedDevice, CountsSequentialAndRandom) {
  auto clock = std::make_shared<util::SimClock>();
  auto dev = std::make_shared<TimedDevice>(
      std::make_shared<MemBlockDevice>(64), TimingModel{}, clock);
  const auto b = pattern(4096, 7);
  for (int i = 0; i < 8; ++i) dev->write_block(i, b);  // 1 random + 7 seq
  dev->write_block(32, b);                             // random
  EXPECT_EQ(dev->writes(), 9u);
  EXPECT_EQ(dev->sequential_ios(), 7u);
  EXPECT_EQ(dev->random_ios(), 2u);
  dev->reset_counters();
  EXPECT_EQ(dev->writes(), 0u);
}

TEST(TimedDevice, PresetModelsAreOrderedSensibly) {
  const auto emmc = TimingModel::nexus4_emmc();
  const auto ssd = TimingModel::sata_ssd();
  // SSD streams much faster than eMMC.
  EXPECT_LT(ssd.write_per_block_ns, emmc.write_per_block_ns / 5);
  EXPECT_LT(ssd.read_per_block_ns, emmc.read_per_block_ns / 5);
  // eMMC random writes are penalised much harder than random reads.
  EXPECT_GT(emmc.random_write_penalty_ns, 3 * emmc.random_read_penalty_ns);
}

TEST(RecordingDevice, CountsOperations) {
  auto inner = std::make_shared<MemBlockDevice>(8);
  RecordingDevice dev(inner);
  const auto b = pattern(4096, 8);
  util::Bytes r(4096);
  dev.write_block(0, b);
  dev.write_block(1, b);
  dev.read_block(0, r);
  dev.flush();
  EXPECT_EQ(dev.blocks(IoOp::kWrite), 2u);
  EXPECT_EQ(dev.blocks(IoOp::kRead), 1u);
  EXPECT_EQ(dev.commands(IoOp::kFlush), 1u);
  dev.clear();
  EXPECT_TRUE(dev.ops().empty());
}

TEST(RecordingDevice, IsTransparentOverTimedDevice) {
  // Mixed per-block, vectored and submitted I/O through the recorder must
  // leave the same image and the same virtual clock as the bare timed
  // device, and log each call as one command.
  auto run = [](bool recorded) {
    auto mem = std::make_shared<MemBlockDevice>(64);
    auto clock = std::make_shared<util::SimClock>();
    auto timed = std::make_shared<TimedDevice>(
        mem, TimingModel::nexus4_emmc(), clock);
    timed->set_queue_depth(4);
    auto rec = std::make_shared<RecordingDevice>(timed);
    BlockDevice& dev = recorded ? static_cast<BlockDevice&>(*rec) : *timed;

    const auto w = pattern(8 * 4096, 31);
    dev.write_block(3, {w.data(), 4096});
    dev.write_blocks(10, w);
    util::Bytes r(4 * 4096);
    dev.read_blocks(12, 4, r);
    submit_write_segments(dev, 40, w);
    submit_write_segments(dev, 50, w);
    submit_read_segments(dev, 10, r);
    dev.drain();
    dev.read_block(41, {r.data(), 4096});
    dev.flush();
    if (recorded) {
      EXPECT_EQ(rec->ops().size(), 8u);
      EXPECT_EQ(rec->ops()[1].first, 10u);  // one vectored call, one entry
      EXPECT_EQ(rec->ops()[1].count, 8u);
      EXPECT_FALSE(rec->ops()[1].submitted);
      EXPECT_TRUE(rec->ops()[3].submitted);
      EXPECT_EQ(rec->blocks(IoOp::kWrite), 1u + 8u + 8u + 8u);
    }
    return std::make_pair(mem->snapshot(), clock->now());
  };
  const auto bare = run(false);
  const auto recorded = run(true);
  EXPECT_EQ(bare.first, recorded.first);
  EXPECT_EQ(bare.second, recorded.second);
  EXPECT_GT(bare.second, 0u);
}

// ---- fault injection -----------------------------------------------------------

TEST(RecordingDevice, CapturesOperationOrder) {
  auto inner = std::make_shared<MemBlockDevice>(8);
  RecordingDevice dev(inner);
  const auto b = pattern(4096, 9);
  util::Bytes r(4096);
  dev.write_block(3, b);
  dev.read_block(3, r);
  dev.flush();
  ASSERT_EQ(dev.ops().size(), 3u);
  EXPECT_EQ(dev.ops()[0].op, IoOp::kWrite);
  EXPECT_EQ(dev.ops()[0].first, 3u);
  EXPECT_EQ(dev.ops()[0].count, 1u);
  EXPECT_EQ(dev.ops()[1].op, IoOp::kRead);
  EXPECT_EQ(dev.ops()[2].op, IoOp::kFlush);
  dev.clear();
  EXPECT_TRUE(dev.ops().empty());
}

namespace {
std::shared_ptr<FaultInjectedDevice> budgeted(std::int64_t blocks) {
  FaultPlan plan;
  plan.write_budget_blocks = blocks;
  return std::make_shared<FaultInjectedDevice>(
      std::make_shared<MemBlockDevice>(8),
      std::make_shared<FaultInjector>(plan));
}
}  // namespace

TEST(FaultyDevice, FailsExactlyOnBudgetExhaustion) {
  auto dev = budgeted(2);
  const auto b = pattern(4096, 10);
  dev->write_block(0, b);
  dev->write_block(1, b);
  EXPECT_THROW(dev->write_block(2, b), InjectedFault);
  // Reads are unaffected; rearm allows further writes.
  util::Bytes r(4096);
  dev->read_block(0, r);
  EXPECT_EQ(r, b);
  dev->injector()->rearm_write_budget(1);
  dev->write_block(2, b);
  EXPECT_THROW(dev->write_block(3, b), InjectedFault);
}

TEST(FaultyDevice, NegativeBudgetNeverFails) {
  auto dev = budgeted(-1);
  const auto b = pattern(4096, 11);
  for (int i = 0; i < 8; ++i) dev->write_block(i % 8, b);
}
