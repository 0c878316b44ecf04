// dm::MirrorTarget — RAID-1 fan-out/round-robin service, degraded-mode
// failover with repair-on-read, fail-closed writes when redundancy is
// exhausted, and the online rebuild: spare copy under foreground I/O,
// watermark checkpointing with idempotent crash replay, spare never read
// before promotion, and the full MobiCeal stack surviving a power loss
// mid-rebuild. The threaded foreground-vs-rebuild race runs under TSan in
// CI (ctest -R 'FaultInjector|Rebuild').
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "blockdev/block_device.hpp"
#include "blockdev/fault_injector.hpp"
#include "blockdev/recording_device.hpp"
#include "core/mobiceal.hpp"
#include "dm/mirror_target.hpp"
#include "thin/thin_pool.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace mobiceal {
namespace {

using blockdev::FaultInjectedDevice;
using blockdev::FaultInjector;
using blockdev::FaultPlan;
using blockdev::MemBlockDevice;
using blockdev::MemberDead;
using blockdev::PowerCut;
using blockdev::RecordingDevice;
using dm::MirrorTarget;

util::Bytes pattern(std::size_t n, std::uint8_t salt) {
  util::Bytes data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::uint8_t>(salt + i * 7 + (i >> 8) * 131);
  }
  return data;
}

/// Per-block content that depends only on the block index, so a racing
/// writer and rebuild copier must converge to the same image regardless of
/// interleaving.
util::Bytes block_content(std::uint64_t block, std::size_t bs) {
  return pattern(bs, static_cast<std::uint8_t>(block * 31 + 7));
}

// ---- healthy-array service --------------------------------------------------

TEST(MirrorTest, WritesFanOutAndReadsRoundRobin) {
  auto mem0 = std::make_shared<MemBlockDevice>(64);
  auto mem1 = std::make_shared<MemBlockDevice>(64);
  auto rec0 = std::make_shared<RecordingDevice>(mem0);
  auto rec1 = std::make_shared<RecordingDevice>(mem1);
  MirrorTarget mirror({rec0, rec1});

  const auto data = pattern(4 * mirror.block_size(), 1);
  mirror.write_blocks(8, data);
  // Every member carries every write (that is the redundancy).
  EXPECT_EQ(mem0->snapshot(), mem1->snapshot());
  EXPECT_EQ(rec0->blocks(blockdev::IoOp::kWrite), 4u);
  EXPECT_EQ(rec1->blocks(blockdev::IoOp::kWrite), 4u);

  // Reads round-robin across in-sync members: two reads, one per leg.
  util::Bytes buf(mirror.block_size());
  mirror.read_block(8, buf);
  mirror.read_block(8, buf);
  EXPECT_EQ(rec0->blocks(blockdev::IoOp::kRead), 1u);
  EXPECT_EQ(rec1->blocks(blockdev::IoOp::kRead), 1u);
  EXPECT_EQ(buf, util::Bytes(data.begin(),
                             data.begin() + mirror.block_size()));
}

TEST(MirrorTest, MismatchedMemberGeometryIsRejected) {
  auto a = std::make_shared<MemBlockDevice>(64);
  auto b = std::make_shared<MemBlockDevice>(32);
  EXPECT_THROW(MirrorTarget({a, b}), util::PolicyError);
  EXPECT_THROW(MirrorTarget({}), util::PolicyError);
}

TEST(MirrorTest, ReadFaultFailsOverAndRepairsTheLatentSector) {
  FaultPlan plan;
  plan.latent_bad_blocks = {3};
  auto mem0 = std::make_shared<MemBlockDevice>(64);
  auto mem1 = std::make_shared<MemBlockDevice>(64);
  auto injector = std::make_shared<FaultInjector>(plan);
  auto mirror = std::make_shared<MirrorTarget>(
      std::vector<std::shared_ptr<blockdev::BlockDevice>>{
          mem0, std::make_shared<FaultInjectedDevice>(mem1, injector)});

  // The write heals nothing here: it lands before any read discovers the
  // sector, and healing only fires for blocks the plan marked latent —
  // so re-seed the latent sector by writing around it.
  const auto data = block_content(3, mirror->block_size());
  mirror->write_block(3, data);
  ASSERT_EQ(injector->latent_bad_count(), 0u);  // fan-out write healed it

  // Re-arm: a fresh injector on the same member keeps the member data.
  plan.latent_bad_blocks = {7};
  auto injector2 = std::make_shared<FaultInjector>(plan);
  auto mirror2 = std::make_shared<MirrorTarget>(
      std::vector<std::shared_ptr<blockdev::BlockDevice>>{
          mem0, std::make_shared<FaultInjectedDevice>(mem1, injector2)});
  const auto d7 = block_content(7, mirror2->block_size());
  mem0->write_block(7, d7);
  mem1->write_block(7, d7);

  util::Bytes buf(mirror2->block_size());
  mirror2->read_block(7, buf);  // round-robin: member 0, clean
  EXPECT_EQ(mirror2->failovers(), 0u);
  mirror2->read_block(7, buf);  // member 1: ReadFault -> failover + repair
  EXPECT_EQ(buf, d7);
  EXPECT_EQ(mirror2->failovers(), 1u);
  EXPECT_EQ(mirror2->repaired_ranges(), 1u);
  EXPECT_EQ(injector2->healed_blocks(), 1u);
  EXPECT_EQ(injector2->latent_bad_count(), 0u);
  // The faulted member stayed in the array (transient faults don't kick).
  EXPECT_EQ(mirror2->live_members(), 2u);
  // And now serves the repaired sector itself.
  mirror2->read_block(7, buf);  // member 0
  mirror2->read_block(7, buf);  // member 1, healed
  EXPECT_EQ(mirror2->failovers(), 1u);
}

TEST(MirrorTest, DeadMemberIsKickedAndWritesFailClosedWhenNoneRemain) {
  FaultPlan doa;
  doa.drop_after_requests = 0;
  auto mem0 = std::make_shared<MemBlockDevice>(64);
  auto mem1 = std::make_shared<MemBlockDevice>(64);
  auto mirror = std::make_shared<MirrorTarget>(
      std::vector<std::shared_ptr<blockdev::BlockDevice>>{
          mem0, std::make_shared<FaultInjectedDevice>(
                    mem1, std::make_shared<FaultInjector>(doa))});

  // The first write discovers the dead member and kicks it; the write
  // itself is still durable on the surviving leg.
  const auto data = pattern(mirror->block_size(), 9);
  EXPECT_NO_THROW(mirror->write_block(0, data));
  EXPECT_TRUE(mirror->degraded());
  EXPECT_EQ(mirror->live_members(), 1u);
  util::Bytes buf(mirror->block_size());
  mirror->read_block(0, buf);  // degraded read: surviving member serves
  EXPECT_EQ(buf, data);

  // Redundancy exhausted: writes and reads fail closed, and no data moves.
  mirror->fail_member(0);
  EXPECT_EQ(mirror->live_members(), 0u);
  const auto before = mem0->snapshot();
  EXPECT_THROW(mirror->write_block(1, data), util::IoError);
  EXPECT_THROW(mirror->read_block(0, buf), util::IoError);
  EXPECT_THROW(mirror->flush(), util::IoError);
  EXPECT_EQ(mem0->snapshot(), before);
}

TEST(MirrorTest, FlushIsDurableIfAnyMemberCompletesTheBarrier) {
  FaultPlan cut;
  cut.power_cut_at_flush = 1;
  auto mem0 = std::make_shared<MemBlockDevice>(64);
  auto mem1 = std::make_shared<MemBlockDevice>(64);
  auto mirror = std::make_shared<MirrorTarget>(
      std::vector<std::shared_ptr<blockdev::BlockDevice>>{
          std::make_shared<FaultInjectedDevice>(
              mem0, std::make_shared<FaultInjector>(cut)),
          mem1});

  mirror->write_block(0, pattern(mirror->block_size(), 2));
  // Member 0 dies at its barrier; member 1 carried it, so the flush is
  // durable and only the failed member is kicked.
  EXPECT_NO_THROW(mirror->flush());
  EXPECT_EQ(mirror->live_members(), 1u);

  // With no redundancy left, a failed barrier surfaces.
  FaultPlan cut1;
  cut1.power_cut_at_flush = 1;
  auto solo = std::make_shared<MirrorTarget>(
      std::vector<std::shared_ptr<blockdev::BlockDevice>>{
          std::make_shared<FaultInjectedDevice>(
              std::make_shared<MemBlockDevice>(64),
              std::make_shared<FaultInjector>(cut1))});
  EXPECT_THROW(solo->flush(), PowerCut);
}

// ---- online rebuild ---------------------------------------------------------

struct RebuildRig {
  std::shared_ptr<MemBlockDevice> mem0;
  std::shared_ptr<MemBlockDevice> mem1;
  std::shared_ptr<MirrorTarget> mirror;

  explicit RebuildRig(std::uint64_t blocks = 256) {
    mem0 = std::make_shared<MemBlockDevice>(blocks);
    mem1 = std::make_shared<MemBlockDevice>(blocks);
    mirror = std::make_shared<MirrorTarget>(
        std::vector<std::shared_ptr<blockdev::BlockDevice>>{mem0, mem1});
    for (std::uint64_t b = 0; b < blocks; b += 16) {
      mirror->write_blocks(
          b, pattern(16 * mirror->block_size(),
                     static_cast<std::uint8_t>(b)));
    }
  }
};

TEST(RebuildTest, OnlineRebuildCopiesPromotesAndServesReads) {
  RebuildRig rig;
  rig.mirror->fail_member(1);
  ASSERT_TRUE(rig.mirror->degraded());

  auto spare_mem = std::make_shared<MemBlockDevice>(256);
  rig.mirror->attach_spare(spare_mem);
  EXPECT_TRUE(rig.mirror->rebuilding());
  std::uint64_t steps = 0;
  while (rig.mirror->rebuilding()) {
    EXPECT_GT(rig.mirror->rebuild_step(32), 0u);
    ++steps;
  }
  EXPECT_EQ(steps, 256u / 32u);
  EXPECT_EQ(rig.mirror->rebuilt_blocks(), 256u);
  EXPECT_EQ(rig.mirror->rebuilds_completed(), 1u);
  EXPECT_EQ(spare_mem->snapshot(), rig.mem0->snapshot());
  // The promoted spare is a full member: redundancy is restored (the dead
  // leg stays on the roster, so member_count is 3 with 2 live).
  EXPECT_EQ(rig.mirror->live_members(), 2u);
  EXPECT_EQ(rig.mirror->member_count(), 3u);

  // A second rebuild can start only after the first completes — attaching
  // while one is in flight is a policy error.
  auto spare2 = std::make_shared<MemBlockDevice>(256);
  rig.mirror->attach_spare(spare2);
  EXPECT_THROW(rig.mirror->attach_spare(spare2), util::PolicyError);
}

TEST(RebuildTest, ForegroundWritesPropagateOnlyBelowTheWatermark) {
  RebuildRig rig;
  rig.mirror->fail_member(1);
  auto spare_mem = std::make_shared<MemBlockDevice>(256);
  rig.mirror->attach_spare(spare_mem);
  ASSERT_EQ(rig.mirror->rebuild_step(128), 128u);
  ASSERT_EQ(rig.mirror->rebuild_watermark(), 128u);

  const std::size_t bs = rig.mirror->block_size();
  const auto lo = block_content(10, bs);
  const auto hi = block_content(200, bs);
  rig.mirror->write_block(10, lo);   // below: lands on the spare too
  rig.mirror->write_block(200, hi);  // above: the copy will carry it later
  util::Bytes got(bs);
  spare_mem->read_block(10, got);
  EXPECT_EQ(got, lo);
  spare_mem->read_block(200, got);
  EXPECT_NE(got, hi);  // not yet copied, foreground write not propagated

  while (rig.mirror->rebuilding()) rig.mirror->rebuild_step(64);
  EXPECT_EQ(spare_mem->snapshot(), rig.mem0->snapshot());
}

TEST(RebuildTest, CheckpointReplayAfterCrashIsIdempotent) {
  RebuildRig rig;
  rig.mirror->fail_member(1);
  auto spare_mem = std::make_shared<MemBlockDevice>(256);
  rig.mirror->attach_spare(spare_mem);
  rig.mirror->rebuild_step(96);
  rig.mirror->write_block(5, block_content(5, rig.mirror->block_size()));
  const std::uint64_t true_progress = rig.mirror->rebuild_watermark();
  ASSERT_EQ(true_progress, 96u);
  // The crash: the array object vanishes; the images (members, spare) and
  // a LAGGED checkpoint — persisted less often than the copy advances —
  // survive.
  const std::uint64_t checkpoint = true_progress - 64;
  rig.mirror.reset();

  auto replay = std::make_shared<MirrorTarget>(
      std::vector<std::shared_ptr<blockdev::BlockDevice>>{rig.mem0});
  replay->attach_spare(spare_mem, checkpoint);
  EXPECT_EQ(replay->rebuild_watermark(), checkpoint);
  // Foreground life resumes mid-replay; the re-copy of [checkpoint,
  // true_progress) is idempotent.
  replay->write_block(2, block_content(2, replay->block_size()));
  while (replay->rebuilding()) replay->rebuild_step(32);
  EXPECT_EQ(replay->rebuilds_completed(), 1u);
  EXPECT_EQ(spare_mem->snapshot(), rig.mem0->snapshot());
}

TEST(RebuildTest, SpareIsNeverReadBeforePromotion) {
  RebuildRig rig;
  rig.mirror->fail_member(1);
  auto spare_mem = std::make_shared<MemBlockDevice>(256);
  auto spare_rec = std::make_shared<RecordingDevice>(spare_mem);
  rig.mirror->attach_spare(spare_rec);
  rig.mirror->rebuild_step(128);

  // Plenty of reads across the whole device, below and above the
  // watermark: an unpromoted spare must serve none of them (its content
  // is torn by definition until the copy completes).
  util::Bytes buf(rig.mirror->block_size());
  for (std::uint64_t b = 0; b < 256; b += 8) rig.mirror->read_block(b, buf);
  EXPECT_EQ(spare_rec->blocks(blockdev::IoOp::kRead), 0u);

  while (rig.mirror->rebuilding()) rig.mirror->rebuild_step(64);
  // After promotion the spare joins the round-robin read set.
  rig.mirror->read_block(0, buf);
  rig.mirror->read_block(0, buf);
  EXPECT_GT(spare_rec->blocks(blockdev::IoOp::kRead), 0u);
}

TEST(RebuildTest, SpareWriteFailureAbortsTheRebuild) {
  RebuildRig rig;
  FaultPlan doa;
  doa.drop_after_requests = 1;  // first copy write succeeds, second kills
  auto spare_mem = std::make_shared<MemBlockDevice>(256);
  rig.mirror->attach_spare(std::make_shared<FaultInjectedDevice>(
      spare_mem, std::make_shared<FaultInjector>(doa)));
  ASSERT_EQ(rig.mirror->rebuild_step(32), 32u);
  EXPECT_THROW(rig.mirror->rebuild_step(32), MemberDead);
  // The rebuild is aborted — watermark reset, spare detached — and the
  // array keeps serving I/O (a failed spare never costs redundancy).
  EXPECT_FALSE(rig.mirror->rebuilding());
  EXPECT_EQ(rig.mirror->rebuild_watermark(), 0u);
  EXPECT_EQ(rig.mirror->rebuild_step(32), 0u);
  util::Bytes buf(rig.mirror->block_size());
  EXPECT_NO_THROW(rig.mirror->read_block(0, buf));
  EXPECT_NO_THROW(rig.mirror->write_block(0, buf));
  EXPECT_EQ(rig.mirror->live_members(), 2u);
}

TEST(RebuildTest, ThreadedForegroundWritesRaceTheRebuildSafely) {
  // The TSan target: a real foreground writer thread races the rebuild
  // driver. Content is a pure function of the block index, so any
  // interleaving must converge to spare == canonical member.
  RebuildRig rig;
  rig.mirror->fail_member(1);
  auto spare_mem = std::make_shared<MemBlockDevice>(256);
  rig.mirror->attach_spare(spare_mem);
  const std::size_t bs = rig.mirror->block_size();

  std::thread writer([&] {
    for (int pass = 0; pass < 4; ++pass) {
      for (std::uint64_t b = pass % 2; b < 256; b += 2) {
        rig.mirror->write_block(b, block_content(b, bs));
      }
    }
  });
  std::thread rebuilder([&] {
    while (rig.mirror->rebuilding()) rig.mirror->rebuild_step(8);
  });
  writer.join();
  rebuilder.join();

  EXPECT_EQ(rig.mirror->rebuilds_completed(), 1u);
  EXPECT_EQ(spare_mem->snapshot(), rig.mem0->snapshot());
}

TEST(RebuildTest, MobiCealStackSurvivesPowerLossMidRebuild) {
  // Full stack over a degraded mirror: power loss while the spare is half
  // rebuilt. Replay re-attaches the device from its footer AND resumes the
  // copy from a lagged checkpoint; committed data survives and the
  // finished spare is bit-identical to the canonical member.
  auto leg0 = std::make_shared<MemBlockDevice>(16384);
  auto leg1 = std::make_shared<MemBlockDevice>(16384);
  core::MobiCealDevice::Config cfg;
  cfg.num_volumes = 4;
  cfg.chunk_blocks = 4;
  cfg.kdf_iterations = 16;
  cfg.fs_inode_count = 128;
  cfg.thin_cpu = thin::ThinCpuModel::zero();
  const auto saved = pattern(60000, 11);
  auto spare_mem = std::make_shared<MemBlockDevice>(16384);
  std::uint64_t checkpoint = 0;
  {
    auto mirror = std::make_shared<MirrorTarget>(
        std::vector<std::shared_ptr<blockdev::BlockDevice>>{leg0, leg1});
    auto dev = core::MobiCealDevice::initialize(mirror, cfg, "pub", {"hid"});
    dev->boot("pub");
    dev->data_fs().write_file("/durable.bin", saved);
    dev->data_fs().sync();  // commit point
    mirror->fail_member(1);  // leg 1 dies; array degraded
    mirror->attach_spare(spare_mem);
    while (mirror->rebuild_watermark() < 8192) {
      mirror->rebuild_step(512);
      dev->data_fs().write_file("/churn.bin", pattern(20000, 12));
    }
    // The checkpoint the rebuild driver last persisted lags the true copy
    // progress — replay from it must still converge.
    checkpoint = mirror->rebuild_watermark() - 1024;
    dev->data_fs().write_file("/lost.bin", pattern(30000, 13));
    // Power loss: no sync, no reboot; every in-RAM object vanishes.
  }

  auto mirror = std::make_shared<MirrorTarget>(
      std::vector<std::shared_ptr<blockdev::BlockDevice>>{leg0});
  mirror->attach_spare(spare_mem, checkpoint);
  auto dev = core::MobiCealDevice::attach(mirror, cfg);
  ASSERT_EQ(dev->boot("pub"), core::AuthResult::kPublic);
  EXPECT_EQ(dev->data_fs().read_file("/durable.bin"), saved);
  while (mirror->rebuilding()) {
    mirror->rebuild_step(512);
  }
  EXPECT_EQ(mirror->rebuilds_completed(), 1u);
  dev->data_fs().sync();
  EXPECT_EQ(spare_mem->snapshot(), leg0->snapshot());
}

}  // namespace
}  // namespace mobiceal
