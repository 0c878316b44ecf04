// Baseline system tests: Android FDE, MobiPluto, Mobiflage, HIVE write-only
// ORAM, DEFY log-structured device — functional correctness and the
// properties the comparison experiments rely on.
#include <gtest/gtest.h>

#include "baselines/android_fde.hpp"
#include "baselines/defy.hpp"
#include "baselines/hive_woram.hpp"
#include "baselines/mobiflage.hpp"
#include "baselines/mobipluto.hpp"
#include "baselines/timing_flows.hpp"
#include "blockdev/recording_device.hpp"
#include "blockdev/timed_device.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

using namespace mobiceal;

namespace {
util::Bytes payload(std::size_t n, std::uint8_t seed) {
  util::Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed * 17 + i * 7);
  }
  return out;
}
}  // namespace

// ---- Android FDE -------------------------------------------------------------

TEST(AndroidFde, BootRequiresCorrectPassword) {
  auto disk = std::make_shared<blockdev::MemBlockDevice>(8192);
  baselines::AndroidFdeDevice::Config cfg;
  cfg.kdf_iterations = 16;
  auto dev = baselines::AndroidFdeDevice::initialize(disk, cfg, "pw");
  EXPECT_FALSE(dev->boot("wrong"));
  EXPECT_TRUE(dev->boot("pw"));
  dev->data_fs().write_file("/x", payload(10000, 1));
  EXPECT_EQ(dev->data_fs().read_file("/x"), payload(10000, 1));
}

TEST(AndroidFde, CiphertextOnDiskLooksRandom) {
  auto disk = std::make_shared<blockdev::MemBlockDevice>(8192);
  baselines::AndroidFdeDevice::Config cfg;
  cfg.kdf_iterations = 16;
  auto dev = baselines::AndroidFdeDevice::initialize(disk, cfg, "pw");
  ASSERT_TRUE(dev->boot("pw"));
  dev->data_fs().write_file("/zeros", util::Bytes(64 * 1024, 0));
  dev->data_fs().sync();
  // The FS superblock block is ciphertext on the raw device.
  util::Bytes raw(4096);
  disk->read_block(0, raw);
  EXPECT_TRUE(util::looks_random(raw));
}

// ---- MobiPluto ------------------------------------------------------------------

TEST(MobiPluto, PublicAndHiddenModesWork) {
  auto disk = std::make_shared<blockdev::MemBlockDevice>(16384);
  baselines::MobiPlutoDevice::Config cfg;
  cfg.kdf_iterations = 16;
  cfg.chunk_blocks = 4;
  cfg.fs_inode_count = 128;
  cfg.thin_cpu = thin::ThinCpuModel::zero();
  cfg.crypt_cpu = dm::CryptCpuModel::zero();
  auto dev = baselines::MobiPlutoDevice::initialize(disk, cfg, "pub", "hid");

  EXPECT_EQ(dev->boot("pub"), baselines::MobiPlutoDevice::Mode::kPublic);
  dev->data_fs().write_file("/p", payload(30000, 2));
  dev->reboot();
  EXPECT_EQ(dev->boot("hid"), baselines::MobiPlutoDevice::Mode::kHidden);
  dev->data_fs().write_file("/h", payload(30000, 3));
  dev->reboot();
  EXPECT_EQ(dev->boot("pub"), baselines::MobiPlutoDevice::Mode::kPublic);
  EXPECT_EQ(dev->data_fs().read_file("/p"), payload(30000, 2));
  EXPECT_FALSE(dev->data_fs().exists("/h"));
}

TEST(MobiPluto, UsesSequentialAllocation) {
  auto disk = std::make_shared<blockdev::MemBlockDevice>(16384);
  baselines::MobiPlutoDevice::Config cfg;
  cfg.kdf_iterations = 16;
  cfg.chunk_blocks = 4;
  cfg.fs_inode_count = 128;
  cfg.skip_random_fill = true;
  auto dev = baselines::MobiPlutoDevice::initialize(disk, cfg, "pub", "hid");
  EXPECT_EQ(dev->pool().superblock().policy, thin::AllocPolicy::kSequential);
}

TEST(MobiPluto, InitialRandomFillCoversDataArea) {
  auto disk = std::make_shared<blockdev::MemBlockDevice>(16384);
  baselines::MobiPlutoDevice::Config cfg;
  cfg.kdf_iterations = 16;
  cfg.chunk_blocks = 4;
  cfg.fs_inode_count = 128;
  auto dev = baselines::MobiPlutoDevice::initialize(disk, cfg, "pub", "hid");
  // A block deep in the data area, never written by a volume, must look
  // random (the static defence).
  util::Bytes b(4096);
  disk->read_block(12000, b);
  EXPECT_TRUE(util::looks_random(b));
}

// ---- Mobiflage ---------------------------------------------------------------------

TEST(Mobiflage, PublicFatAndHiddenExtCoexist) {
  auto disk = std::make_shared<blockdev::MemBlockDevice>(16384);
  baselines::MobiflageDevice::Config cfg;
  cfg.kdf_iterations = 16;
  cfg.crypt_cpu = dm::CryptCpuModel::zero();
  auto dev = baselines::MobiflageDevice::initialize(disk, cfg, "pub", "hid");

  EXPECT_EQ(dev->boot("pub"), baselines::MobiflageDevice::Mode::kPublic);
  dev->data_fs().write_file("/vacation.jpg", payload(50000, 4));
  dev->reboot();
  EXPECT_EQ(dev->boot("hid"), baselines::MobiflageDevice::Mode::kHidden);
  dev->data_fs().write_file("/secret.doc", payload(20000, 5));
  dev->reboot();
  EXPECT_EQ(dev->boot("pub"), baselines::MobiflageDevice::Mode::kPublic);
  EXPECT_EQ(dev->data_fs().read_file("/vacation.jpg"), payload(50000, 4));
}

TEST(Mobiflage, HiddenOffsetDeterministicAndInWindow) {
  auto disk = std::make_shared<blockdev::MemBlockDevice>(16384);
  baselines::MobiflageDevice::Config cfg;
  cfg.kdf_iterations = 16;
  cfg.skip_random_fill = true;
  auto dev = baselines::MobiflageDevice::initialize(disk, cfg, "pub", "hid");
  const std::uint64_t off = dev->hidden_offset("hid");
  EXPECT_EQ(off, dev->hidden_offset("hid"));
  const std::uint64_t usable =
      16384 - fde::footer_blocks(4096);
  EXPECT_EQ(dev->hidden_blocks(), usable / 10);
  EXPECT_GE(off, usable * 70 / 100);
  EXPECT_LE(off + dev->hidden_blocks(), usable * 95 / 100);
  EXPECT_NE(dev->hidden_offset("hid"), dev->hidden_offset("other"));
}

TEST(Mobiflage, EveryHiddenVolumeFitsAndFormats) {
  // The hidden volume is sized before its offset is drawn, so no password
  // (or salt) leaves too little room for it. Swept on the 32 MiB span of
  // the raw-flash game, where an offset drawn near 95% once left too few
  // blocks to format the hidden ext volume.
  auto disk = std::make_shared<blockdev::MemBlockDevice>(8192);
  const std::uint64_t usable = 8192 - fde::footer_blocks(4096);
  baselines::MobiflageDevice::Config cfg;
  cfg.kdf_iterations = 1;
  cfg.skip_random_fill = true;
  cfg.crypt_cpu = dm::CryptCpuModel::zero();
  for (int i = 0; i < 256; ++i) {
    const std::string hid = "hidden-" + std::to_string(i);
    cfg.rng_seed = 100 + i;  // a fresh footer salt per initialisation
    auto dev = baselines::MobiflageDevice::initialize(disk, cfg, "pub", hid);
    const std::uint64_t off = dev->hidden_offset(hid);
    EXPECT_GE(off, usable * 70 / 100) << hid;
    EXPECT_LE(off + dev->hidden_blocks(), usable * 95 / 100) << hid;
    ASSERT_EQ(dev->boot(hid), baselines::MobiflageDevice::Mode::kHidden)
        << hid;
    dev->data_fs().write_file("/s", payload(4096, 1));
    dev->reboot();
  }
}

TEST(Mobiflage, OverwriteHazardDetectedByHighWaterMark) {
  // The failure mode MobiCeal's bitmap prevents (Sec. IV-A q3): the public
  // FAT volume grows sequentially into the hidden region.
  auto disk = std::make_shared<blockdev::MemBlockDevice>(16384);
  baselines::MobiflageDevice::Config cfg;
  cfg.kdf_iterations = 16;
  cfg.skip_random_fill = true;
  cfg.crypt_cpu = dm::CryptCpuModel::zero();
  auto dev = baselines::MobiflageDevice::initialize(disk, cfg, "pub", "hid");
  ASSERT_EQ(dev->boot("pub"), baselines::MobiflageDevice::Mode::kPublic);
  EXPECT_FALSE(dev->hidden_volume_endangered("hid"));
  // Fill the public volume until its high-water mark crosses the (secret,
  // randomised) hidden offset. The offset lies below 95% of the disk while
  // FAT can fill to ~99%, so the crossing happens before disk-full.
  bool endangered = false;
  for (int i = 0; i < 70 && !endangered; ++i) {
    dev->data_fs().write_file("/bulk" + std::to_string(i),
                              payload(1 << 20, static_cast<std::uint8_t>(i)));
    endangered = dev->hidden_volume_endangered("hid");
  }
  EXPECT_TRUE(endangered);
}

// ---- HIVE write-only ORAM ----------------------------------------------------------

TEST(HiveWoOram, RoundTripsUnderChurn) {
  auto phys = std::make_shared<blockdev::MemBlockDevice>(1024);
  const util::Bytes key(32, 0x66);
  baselines::HiveWoOram::Config cfg;
  auto oram = std::make_shared<baselines::HiveWoOram>(phys, key, cfg);
  ASSERT_EQ(oram->num_blocks(), 512u);
  // Write/overwrite a working set repeatedly; verify all versions stick.
  for (int round = 0; round < 4; ++round) {
    for (std::uint64_t b = 0; b < 64; ++b) {
      oram->write_block(b, payload(4096, static_cast<std::uint8_t>(b + round)));
    }
  }
  util::Bytes r(4096);
  for (std::uint64_t b = 0; b < 64; ++b) {
    oram->read_block(b, r);
    EXPECT_EQ(r, payload(4096, static_cast<std::uint8_t>(b + 3))) << b;
  }
}

TEST(HiveWoOram, WriteAmplificationMatchesK) {
  auto phys = std::make_shared<blockdev::MemBlockDevice>(2048);
  const util::Bytes key(32, 0x67);
  baselines::HiveWoOram::Config cfg;
  cfg.k = 3;
  auto oram = std::make_shared<baselines::HiveWoOram>(phys, key, cfg);
  for (std::uint64_t b = 0; b < 128; ++b) {
    oram->write_block(b % 32, payload(4096, static_cast<std::uint8_t>(b)));
  }
  // Every logical write rewrites ~k physical slots.
  EXPECT_NEAR(oram->write_amplification(), 3.0, 0.25);
}

TEST(HiveWoOram, PhysicalWritePatternIndependentOfLogicalTarget) {
  // The ORAM property: writing the SAME logical block repeatedly still
  // touches uniformly random physical slots.
  auto phys_raw = std::make_shared<blockdev::MemBlockDevice>(2048);
  const util::Bytes key(32, 0x68);
  baselines::HiveWoOram::Config cfg;
  auto oram = std::make_shared<baselines::HiveWoOram>(phys_raw, key, cfg);
  // Snapshot-diff proxy: count distinct physical blocks changed while only
  // logical block 0 is written.
  auto before = phys_raw->snapshot();
  for (int i = 0; i < 50; ++i) oram->write_block(0, payload(4096, i));
  auto after = phys_raw->snapshot();
  std::uint64_t changed = 0;
  for (std::uint64_t b = 0; b < 2048; ++b) {
    if (!std::equal(before.begin() + b * 4096, before.begin() + (b + 1) * 4096,
                    after.begin() + b * 4096)) {
      ++changed;
    }
  }
  // 50 writes x k=3 slots, sampled uniformly from 2048: expect >100 distinct
  // physical locations — nothing like the single-block logical pattern.
  EXPECT_GT(changed, 100u);
}

TEST(HiveWoOram, StashStaysBoundedUnderChurn) {
  auto phys = std::make_shared<blockdev::MemBlockDevice>(512);
  const util::Bytes key(32, 0x69);
  baselines::HiveWoOram::Config cfg;
  cfg.space_blowup = 2.0;
  cfg.max_stash = 32;
  auto oram = std::make_shared<baselines::HiveWoOram>(phys, key, cfg);
  for (std::uint64_t w = 0; w < 1024; ++w) {
    oram->write_block(w % oram->num_blocks(),
                      payload(4096, static_cast<std::uint8_t>(w)));
    EXPECT_LE(oram->stash_size(), cfg.max_stash);
  }
}

TEST(HiveWoOram, StashOverflowFailsClosed) {
  // With a zero-capacity stash, the first blocked placement (all k sampled
  // slots occupied — probability ~(occupancy)^k per write) must fail
  // closed rather than silently drop data.
  auto phys = std::make_shared<blockdev::MemBlockDevice>(64);
  const util::Bytes key(32, 0x6A);
  baselines::HiveWoOram::Config cfg;
  cfg.space_blowup = 1.5;
  cfg.max_stash = 0;
  auto oram = std::make_shared<baselines::HiveWoOram>(phys, key, cfg);
  EXPECT_THROW(
      {
        for (int round = 0; round < 50; ++round) {
          for (std::uint64_t b = 0; b < oram->num_blocks(); ++b) {
            oram->write_block(b,
                              payload(4096, static_cast<std::uint8_t>(round)));
          }
        }
      },
      util::NoSpaceError);
}

TEST(HiveWoOram, StashDrainOrderIsDeterministic) {
  // Regression: the stash used to live in an unordered_map and the drain
  // path popped begin(), so WHICH stashed version landed in a freed slot —
  // and therefore the physical device image — depended on the standard
  // library's hash layout. The stash is now ordered (smallest logical
  // index drains first): a fixed-seed workload that actually exercises
  // multi-entry stash churn must end with bit-identical physical images on
  // every run and platform.
  const auto run = [](std::uint64_t& max_stash_seen) {
    auto phys = std::make_shared<blockdev::MemBlockDevice>(512);
    const util::Bytes key(32, 0x6B);
    baselines::HiveWoOram::Config cfg;
    cfg.space_blowup = 1.5;  // the policy minimum: occupancy ~2/3, so all
                             // k samples collide often and the stash churns
    cfg.max_stash = 64;
    auto oram = std::make_shared<baselines::HiveWoOram>(phys, key, cfg);
    for (std::uint64_t w = 0; w < 2048; ++w) {
      oram->write_block((w * 7) % oram->num_blocks(),
                        payload(4096, static_cast<std::uint8_t>(w)));
      max_stash_seen = std::max<std::uint64_t>(max_stash_seen,
                                               oram->stash_size());
    }
    // Round-trip under churn: every logical block reads back its last
    // version whether it sits in a slot or in the stash.
    util::Bytes r(4096);
    for (std::uint64_t b = 0; b < oram->num_blocks(); ++b) {
      std::uint64_t last = 0;
      bool written = false;
      for (std::uint64_t w = 0; w < 2048; ++w) {
        if ((w * 7) % oram->num_blocks() == b) {
          last = w;
          written = true;
        }
      }
      EXPECT_TRUE(written) << b;
      if (!written) continue;
      oram->read_block(b, r);
      EXPECT_EQ(r, payload(4096, static_cast<std::uint8_t>(last))) << b;
    }
    return phys->snapshot();
  };
  std::uint64_t max_stash_a = 0, max_stash_b = 0;
  const auto image_a = run(max_stash_a);
  const auto image_b = run(max_stash_b);
  // The workload must really hit the multi-entry drain path, or this test
  // pins nothing.
  EXPECT_GT(max_stash_a, 1u);
  EXPECT_EQ(image_a, image_b);
}

// ---- DEFY ---------------------------------------------------------------------------------

TEST(Defy, RoundTripsThroughLogAndGc) {
  auto phys = std::make_shared<blockdev::MemBlockDevice>(1024);
  const util::Bytes key(32, 0x70);
  baselines::DefyDevice::Config cfg;
  auto defy = std::make_shared<baselines::DefyDevice>(phys, key, cfg);
  ASSERT_EQ(defy->num_blocks(), 512u);
  // A working set near the logical capacity forces relocation GC.
  const std::uint64_t ws = 460;
  for (int round = 0; round < 4; ++round) {
    for (std::uint64_t b = 0; b < ws; ++b) {
      defy->write_block(
          b, payload(4096, static_cast<std::uint8_t>(b * 3 + round)));
    }
  }
  EXPECT_GT(defy->gc_runs(), 0u);
  util::Bytes r(4096);
  for (std::uint64_t b = 0; b < ws; ++b) {
    defy->read_block(b, r);
    EXPECT_EQ(r, payload(4096, static_cast<std::uint8_t>(b * 3 + 3))) << b;
  }
}

TEST(Defy, WritesAreAmplifiedByMetadata) {
  auto phys_raw = std::make_shared<blockdev::MemBlockDevice>(4096);
  auto rec = std::make_shared<blockdev::RecordingDevice>(phys_raw);
  const util::Bytes key(32, 0x71);
  baselines::DefyDevice::Config cfg;
  cfg.metadata_amp = 2;
  auto defy = std::make_shared<baselines::DefyDevice>(rec, key, cfg);
  for (std::uint64_t b = 0; b < 100; ++b) {
    defy->write_block(b, payload(4096, static_cast<std::uint8_t>(b)));
  }
  // 1 data page + metadata_amp metadata pages per logical write.
  EXPECT_EQ(rec->blocks(blockdev::IoOp::kWrite), 100u * 3u);
}

// ---- Table II flow models ------------------------------------------------------------------

TEST(TimingFlows, ShapesMatchTableII) {
  const std::uint64_t partition = 13'700ull * 1024 * 1024;  // Nexus 4 userdata
  const auto dev = blockdev::TimingModel::nexus4_emmc();
  const auto android = core::AndroidTimingModel::nexus4();

  const auto fde = baselines::android_fde_flow(partition, dev, android);
  const auto pluto = baselines::mobipluto_flow(partition, dev, android);

  // Android FDE: ~18 min init (paper: 18m23s), sub-second boot (0.29 s).
  EXPECT_GT(fde.initialization_s, 14 * 60.0);
  EXPECT_LT(fde.initialization_s, 24 * 60.0);
  EXPECT_LT(fde.boot_s, 0.6);
  EXPECT_FALSE(fde.has_pde);

  // MobiPluto: ~37 min init (paper: 37m2s), ~1.4 s boot, >60 s switches.
  EXPECT_GT(pluto.initialization_s, 28 * 60.0);
  EXPECT_LT(pluto.initialization_s, 48 * 60.0);
  EXPECT_GT(pluto.boot_s, fde.boot_s);
  EXPECT_GT(pluto.switch_in_s, 55.0);
  EXPECT_GT(pluto.switch_out_s, 55.0);

  // Ordering: MobiPluto init is the slowest of all systems.
  EXPECT_GT(pluto.initialization_s, fde.initialization_s);
}
