// blockdev::FaultInjector / FaultInjectedDevice — the programmable fault
// policy the crash tests and the degraded-operation stack are built
// against: write budgets, transient read errors, latent bad sectors,
// whole-member drop, power-cut-at-Nth-flush — on EVERY entry point
// (vectored, which carries the per-block calls, and async submit). Plus the
// recorder regression: blockdev::RecordingDevice must see the vectored and
// submit paths (one vectored inner command), and StripedTarget::flush must
// fail closed while still reaching every member.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "blockdev/block_device.hpp"
#include "blockdev/fault_injector.hpp"
#include "blockdev/recording_device.hpp"
#include "blockdev/timed_device.hpp"
#include "dm/striped_target.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/sim_clock.hpp"

namespace mobiceal {
namespace {

using blockdev::FaultInjectedDevice;
using blockdev::FaultInjector;
using blockdev::FaultPlan;
using blockdev::InjectedFault;
using blockdev::IoOp;
using blockdev::IoRequest;
using blockdev::MemBlockDevice;
using blockdev::MemberDead;
using blockdev::PowerCut;
using blockdev::ReadFault;
using blockdev::RecordingDevice;

util::Bytes pattern(std::size_t n, std::uint8_t salt) {
  util::Bytes data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::uint8_t>(salt + i * 7 + (i >> 8) * 131);
  }
  return data;
}

struct InjectedRig {
  std::shared_ptr<MemBlockDevice> mem;
  std::shared_ptr<FaultInjector> injector;
  std::shared_ptr<FaultInjectedDevice> dev;

  explicit InjectedRig(FaultPlan plan, std::uint64_t blocks = 64) {
    mem = std::make_shared<MemBlockDevice>(blocks);
    injector = std::make_shared<FaultInjector>(plan);
    dev = std::make_shared<FaultInjectedDevice>(mem, injector);
  }
};

// ---- FaultInjector policies -------------------------------------------------

TEST(FaultInjectorTest, TransientFaultsAreSeededAndDeterministic) {
  FaultPlan plan;
  plan.seed = 42;
  plan.transient_read_ppm = 200000;  // 20%: plenty of faults in 500 draws
  InjectedRig a(plan);
  InjectedRig b(plan);

  util::Bytes buf(a.dev->block_size());
  std::vector<int> faults_a;
  std::vector<int> faults_b;
  for (int i = 0; i < 500; ++i) {
    try {
      a.dev->read_block(static_cast<std::uint64_t>(i % 64), buf);
    } catch (const ReadFault&) {
      faults_a.push_back(i);
    }
    try {
      b.dev->read_block(static_cast<std::uint64_t>(i % 64), buf);
    } catch (const ReadFault&) {
      faults_b.push_back(i);
    }
  }
  // Same plan, same seed: bit-for-bit the same fault schedule.
  EXPECT_EQ(faults_a, faults_b);
  EXPECT_FALSE(faults_a.empty());
  EXPECT_EQ(a.injector->transient_faults(), faults_a.size());

  // A different seed draws a different schedule.
  plan.seed = 43;
  InjectedRig c(plan);
  std::vector<int> faults_c;
  for (int i = 0; i < 500; ++i) {
    try {
      c.dev->read_block(static_cast<std::uint64_t>(i % 64), buf);
    } catch (const ReadFault&) {
      faults_c.push_back(i);
    }
  }
  EXPECT_NE(faults_a, faults_c);
}

TEST(FaultInjectorTest, LatentBadBlockFailsUntilRewritten) {
  FaultPlan plan;
  plan.latent_bad_blocks = {5, 9};
  InjectedRig rig(plan);
  const auto data = pattern(rig.dev->block_size(), 1);
  util::Bytes buf(rig.dev->block_size());

  EXPECT_EQ(rig.injector->latent_bad_count(), 2u);
  // Every read touching the sector fails, single-block or vectored.
  EXPECT_THROW(rig.dev->read_block(5, buf), ReadFault);
  EXPECT_THROW(rig.dev->read_block(5, buf), ReadFault);  // persistent
  util::Bytes big(4 * rig.dev->block_size());
  EXPECT_THROW(rig.dev->read_blocks(4, 4, big), ReadFault);
  // Reads that miss the bad sectors are clean.
  EXPECT_NO_THROW(rig.dev->read_block(6, buf));
  EXPECT_EQ(rig.injector->latent_faults(), 3u);

  // A rewrite clears the pending sector (scrub / mirror repair-on-read).
  rig.dev->write_block(5, data);
  EXPECT_EQ(rig.injector->healed_blocks(), 1u);
  EXPECT_EQ(rig.injector->latent_bad_count(), 1u);
  EXPECT_NO_THROW(rig.dev->read_block(5, buf));
  EXPECT_EQ(buf, data);

  // A vectored rewrite heals every covered sector.
  rig.dev->write_blocks(8, pattern(2 * rig.dev->block_size(), 2));
  EXPECT_EQ(rig.injector->healed_blocks(), 2u);
  EXPECT_EQ(rig.injector->latent_bad_count(), 0u);
  EXPECT_NO_THROW(rig.dev->read_blocks(4, 4, big));
}

TEST(FaultInjectorTest, MemberDropsAfterNRequests) {
  FaultPlan plan;
  plan.drop_after_requests = 3;
  InjectedRig rig(plan);
  const auto data = pattern(rig.dev->block_size(), 3);
  util::Bytes buf(rig.dev->block_size());

  rig.dev->write_block(0, data);        // request 1
  rig.dev->read_block(0, buf);          // request 2
  rig.dev->read_blocks(0, 1, buf);      // request 3 (vectored counts once)
  EXPECT_FALSE(rig.injector->dead());
  EXPECT_THROW(rig.dev->read_block(0, buf), MemberDead);  // request 4
  EXPECT_TRUE(rig.injector->dead());
  // Dead is dead, on every path.
  EXPECT_THROW(rig.dev->write_block(1, data), MemberDead);
  EXPECT_THROW(rig.dev->flush(), MemberDead);

  // drop_after_requests = 0: dead on arrival.
  FaultPlan doa;
  doa.drop_after_requests = 0;
  InjectedRig gone(doa);
  EXPECT_THROW(gone.dev->read_block(0, buf), MemberDead);

  // drop_now(): bench/test control plane, no request needed.
  InjectedRig healthy(FaultPlan{});
  healthy.injector->drop_now();
  EXPECT_TRUE(healthy.injector->dead());
  EXPECT_THROW(healthy.dev->write_block(0, data), MemberDead);
}

TEST(FaultInjectorTest, PowerCutAtNthFlushIsFatalButEarlierWritesPersist) {
  FaultPlan plan;
  plan.power_cut_at_flush = 2;
  InjectedRig rig(plan);
  const auto d0 = pattern(rig.dev->block_size(), 4);
  const auto d1 = pattern(rig.dev->block_size(), 5);

  rig.dev->write_block(0, d0);
  EXPECT_NO_THROW(rig.dev->flush());  // first barrier completes
  rig.dev->write_block(1, d1);
  EXPECT_THROW(rig.dev->flush(), PowerCut);  // second barrier: lights out
  EXPECT_TRUE(rig.injector->dead());
  // The cut fires exactly once; afterwards the member is simply dead.
  EXPECT_THROW(rig.dev->flush(), MemberDead);
  util::Bytes buf(rig.dev->block_size());
  EXPECT_THROW(rig.dev->read_block(0, buf), MemberDead);

  // Writes issued before the cut reached the medium (data moves at submit
  // time — the simulation's "durable"): the raw image holds both blocks.
  rig.mem->read_block(0, buf);
  EXPECT_EQ(buf, d0);
  rig.mem->read_block(1, buf);
  EXPECT_EQ(buf, d1);
}

TEST(FaultInjectorTest, FaultsCoverTheAsyncSubmitPath) {
  FaultPlan plan;
  plan.latent_bad_blocks = {2};
  plan.power_cut_at_flush = 1;
  InjectedRig rig(plan);
  util::Bytes buf(2 * rig.dev->block_size());
  const auto data = pattern(2 * rig.dev->block_size(), 6);

  IoRequest read;
  read.op = IoOp::kRead;
  read.first = 1;
  read.count = 2;
  read.read_buf = buf;
  EXPECT_THROW(rig.dev->submit(read), ReadFault);

  // A submitted write heals the sector like the synchronous path.
  IoRequest write;
  write.op = IoOp::kWrite;
  write.first = 1;
  write.count = 2;
  write.write_buf = data;
  EXPECT_NO_THROW(rig.dev->submit(write));
  EXPECT_EQ(rig.injector->healed_blocks(), 1u);
  EXPECT_NO_THROW(rig.dev->submit(read));
  EXPECT_EQ(buf, data);

  IoRequest barrier;
  barrier.op = IoOp::kFlush;
  EXPECT_THROW(rig.dev->submit(barrier), PowerCut);
  EXPECT_THROW(rig.dev->submit(write), MemberDead);
}

TEST(FaultInjectorTest, DefaultPlanIsByteAndTimeTransparent) {
  // Wiring an injector with a default (fault-free) plan must be invisible:
  // identical bytes AND identical virtual time against the bare device.
  const auto model = blockdev::TimingModel::nexus4_emmc();
  auto clock_bare = std::make_shared<util::SimClock>();
  auto clock_inj = std::make_shared<util::SimClock>();
  auto mem_bare = std::make_shared<MemBlockDevice>(256);
  auto mem_inj = std::make_shared<MemBlockDevice>(256);
  auto timed_bare =
      std::make_shared<blockdev::TimedDevice>(mem_bare, model, clock_bare);
  auto timed_inj =
      std::make_shared<blockdev::TimedDevice>(mem_inj, model, clock_inj);
  auto injected = std::make_shared<FaultInjectedDevice>(
      timed_inj, std::make_shared<FaultInjector>(FaultPlan{}));

  auto workload = [](blockdev::BlockDevice& dev) {
    const auto big = pattern(8 * dev.block_size(), 7);
    dev.write_blocks(16, big);
    dev.write_block(3, pattern(dev.block_size(), 8));
    util::Bytes buf(8 * dev.block_size());
    dev.read_blocks(16, 8, buf);
    IoRequest w;
    w.op = IoOp::kWrite;
    w.first = 64;
    w.count = 8;
    w.write_buf = big;
    dev.submit(w);
    IoRequest r;
    r.op = IoOp::kRead;
    r.first = 64;
    r.count = 8;
    r.read_buf = buf;
    r.available_ns = dev.submit(r).complete_ns;  // chained second read
    dev.submit(r);
    dev.flush();
    dev.drain();
  };
  workload(*timed_bare);
  workload(*injected);

  EXPECT_EQ(mem_bare->snapshot(), mem_inj->snapshot());
  EXPECT_EQ(clock_bare->now(), clock_inj->now());
}

// ---- recorder and write budget: every entry point intercepted -------------

TEST(FaultInjectorTest, RecordingDeviceCapturesVectoredAndSubmitPaths) {
  // Two recorders stacked: the outer one's log is what callers issued, the
  // inner one's is what reached the device below.
  auto inner = std::make_shared<RecordingDevice>(
      std::make_shared<MemBlockDevice>(32));
  RecordingDevice rec(inner);

  // One vectored write: one log entry, forwarded as ONE vectored command.
  rec.write_blocks(4, pattern(3 * rec.block_size(), 1));
  ASSERT_EQ(rec.ops().size(), 1u);
  EXPECT_EQ(rec.ops()[0].op, IoOp::kWrite);
  EXPECT_EQ(rec.ops()[0].first, 4u);
  EXPECT_EQ(rec.ops()[0].count, 3u);
  EXPECT_EQ(inner->commands(IoOp::kWrite), 1u);

  util::Bytes buf(2 * rec.block_size());
  rec.read_blocks(4, 2, buf);
  EXPECT_EQ(inner->commands(IoOp::kRead), 1u);

  // The async path: submissions are recorded and reach inner submit().
  rec.clear();
  inner->clear();
  const util::Bytes two = pattern(2 * rec.block_size(), 2);
  IoRequest w;
  w.op = IoOp::kWrite;
  w.first = 10;
  w.count = 2;
  w.write_buf = two;
  rec.submit(w);
  IoRequest f;
  f.op = IoOp::kFlush;
  rec.submit(f);
  ASSERT_EQ(rec.ops().size(), 2u);
  EXPECT_EQ(rec.ops()[0].first, 10u);
  EXPECT_EQ(rec.ops()[0].count, 2u);
  EXPECT_TRUE(rec.ops()[0].submitted);
  EXPECT_EQ(rec.ops()[1].op, IoOp::kFlush);
  ASSERT_EQ(inner->ops().size(), 2u);
  EXPECT_TRUE(inner->ops()[0].submitted);
  EXPECT_TRUE(inner->ops()[1].submitted);
}

TEST(FaultInjectorTest, FaultyDeviceBudgetSpansVectoredWrites) {
  auto mem = std::make_shared<MemBlockDevice>(32);
  FaultPlan plan;
  plan.write_budget_blocks = 2;
  FaultInjectedDevice faulty(mem, std::make_shared<FaultInjector>(plan));
  const auto data = pattern(4 * faulty.block_size(), 3);

  // 4-block write against a 2-block budget: the surviving prefix lands
  // (the kernel may complete part of a vectored request), then the fault.
  EXPECT_THROW(faulty.write_blocks(0, data), InjectedFault);
  util::Bytes prefix(2 * faulty.block_size());
  mem->read_blocks(0, 2, prefix);
  EXPECT_EQ(prefix, util::Bytes(data.begin(),
                                data.begin() + 2 * faulty.block_size()));
  util::Bytes tail(faulty.block_size());
  mem->read_block(2, tail);
  EXPECT_EQ(tail, util::Bytes(faulty.block_size(), 0));  // never written

  // One crash per arming: the budget is disarmed afterwards.
  EXPECT_LT(faulty.injector()->write_budget(), 0);
  EXPECT_NO_THROW(faulty.write_blocks(8, data));
}

TEST(FaultInjectorTest, FaultyDeviceBudgetSpansSubmittedWrites) {
  auto mem = std::make_shared<MemBlockDevice>(32);
  FaultPlan plan;
  plan.write_budget_blocks = 1;
  FaultInjectedDevice faulty(mem, std::make_shared<FaultInjector>(plan));
  const auto data = pattern(3 * faulty.block_size(), 4);

  IoRequest w;
  w.op = IoOp::kWrite;
  w.first = 5;
  w.count = 3;
  w.write_buf = data;
  EXPECT_THROW(faulty.submit(w), InjectedFault);
  util::Bytes got(faulty.block_size());
  mem->read_block(5, got);
  EXPECT_EQ(got, util::Bytes(data.begin(),
                             data.begin() + faulty.block_size()));
  mem->read_block(6, got);
  EXPECT_EQ(got, util::Bytes(faulty.block_size(), 0));
}

// ---- striped flush fails closed --------------------------------------------

TEST(FaultInjectorTest, StripedFlushFailsClosedYetReachesEveryMember) {
  // RAID-0: one member missing the barrier fails the whole flush — but
  // every other member must still be flushed and drained first, never a
  // partially issued barrier.
  FaultPlan cut;
  cut.power_cut_at_flush = 1;
  auto mem0 = std::make_shared<MemBlockDevice>(64);
  auto mem1 = std::make_shared<MemBlockDevice>(64);
  auto rec0 = std::make_shared<RecordingDevice>(
      std::make_shared<FaultInjectedDevice>(
          mem0, std::make_shared<FaultInjector>(cut)));
  auto rec1 = std::make_shared<RecordingDevice>(mem1);
  dm::StripedTarget striped({rec0, rec1}, /*chunk_blocks=*/4);

  striped.write_blocks(0, pattern(8 * striped.block_size(), 5));
  rec0->clear();
  rec1->clear();
  EXPECT_THROW(striped.flush(), PowerCut);

  // The failing member was attempted AND the healthy member still got its
  // barrier before the error surfaced.
  EXPECT_EQ(rec0->commands(IoOp::kFlush), 1u);
  EXPECT_EQ(rec1->commands(IoOp::kFlush), 1u);
}

}  // namespace
}  // namespace mobiceal
