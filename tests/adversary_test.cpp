// Adversary toolkit tests: snapshot diffing, forensic metadata parsing,
// the concrete multi-snapshot attacks (which must succeed against the
// single-snapshot baselines and fail against MobiCeal), and the
// side-channel audit.
#include <gtest/gtest.h>

#include <algorithm>

#include "adversary/attacks.hpp"
#include "adversary/ftl_attacks.hpp"
#include "adversary/game.hpp"
#include "adversary/metadata_reader.hpp"
#include "adversary/rebuild_game.hpp"
#include "adversary/security_game.hpp"
#include "adversary/side_channel.hpp"
#include "adversary/snapshot.hpp"
#include "baselines/mobipluto.hpp"
#include "core/android_host.hpp"
#include "core/mobiceal.hpp"
#include "util/error.hpp"

using namespace mobiceal;
using adversary::Snapshot;

namespace {

constexpr char kPub[] = "adv-public";
constexpr char kHid[] = "adv-hidden";

util::Bytes payload(std::size_t n, std::uint8_t seed) {
  util::Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + i * 11);
  }
  return out;
}

core::MobiCealDevice::Config mc_config(std::uint64_t seed = 9) {
  core::MobiCealDevice::Config cfg;
  cfg.num_volumes = 6;
  cfg.chunk_blocks = 4;
  cfg.kdf_iterations = 16;
  cfg.fs_inode_count = 128;
  cfg.thin_cpu = thin::ThinCpuModel::zero();
  cfg.crypt_cpu = dm::CryptCpuModel::zero();
  cfg.rng_seed = seed;
  return cfg;
}

}  // namespace

TEST(SnapshotDiff, ClassifiesChanges) {
  blockdev::MemBlockDevice dev(16);
  const auto d0 = Snapshot::take(dev);
  dev.write_block(3, payload(4096, 1));                 // zero -> data
  dev.write_block(5, payload(4096, 2));
  const auto d1 = Snapshot::take(dev);
  dev.write_block(5, payload(4096, 3));                 // data -> data
  dev.write_block(3, util::Bytes(4096, 0));             // data -> zero
  const auto d2 = Snapshot::take(dev);

  const auto diff01 = adversary::diff_snapshots(d0, d1);
  EXPECT_EQ(diff01.total_changed(), 2u);
  EXPECT_EQ(diff01.zero_to_data, 2u);
  const auto diff12 = adversary::diff_snapshots(d1, d2);
  EXPECT_EQ(diff12.data_to_data, 1u);
  EXPECT_EQ(diff12.data_to_zero, 1u);
  EXPECT_TRUE(adversary::diff_snapshots(d0, d0).changed_blocks.empty());
}

TEST(SnapshotDiff, ChunkGranularity) {
  blockdev::MemBlockDevice dev(64);
  const auto d0 = Snapshot::take(dev);
  dev.write_block(0, payload(4096, 1));
  dev.write_block(1, payload(4096, 1));
  dev.write_block(17, payload(4096, 1));
  const auto d1 = Snapshot::take(dev);
  const auto chunks =
      adversary::changed_chunks(adversary::diff_snapshots(d0, d1), 4);
  EXPECT_EQ(chunks, (std::vector<std::uint64_t>{0, 4}));
}

TEST(MetadataReader, ParsesMobiCealPoolFromRawSnapshot) {
  auto disk = std::make_shared<blockdev::MemBlockDevice>(16384);
  auto dev = core::MobiCealDevice::initialize(disk, mc_config(), kPub, {kHid});
  dev->boot(kPub);
  dev->data_fs().write_file("/a.bin", payload(100000, 1));
  dev->reboot();

  const auto snap = Snapshot::take(*disk);
  EXPECT_TRUE(adversary::has_thin_pool(snap));
  adversary::ThinMetadataReader reader(snap);
  EXPECT_EQ(reader.policy(), thin::AllocPolicy::kRandom);
  EXPECT_EQ(reader.superblock().max_volumes, 6u);
  // All six volumes visible (their existence is NOT secret).
  int active = 0;
  for (const auto& v : reader.volumes()) active += v.active ? 1 : 0;
  EXPECT_EQ(active, 6);
  // The reader's view matches the live pool's accounting.
  EXPECT_EQ(reader.chunks_of_volume(0).size(), dev->pool().mapped_chunks(0));
  EXPECT_TRUE(reader.orphan_chunks().empty());
}

TEST(MetadataReader, RejectsGarbageImages) {
  blockdev::MemBlockDevice dev(64);
  const auto snap = Snapshot::take(dev);
  EXPECT_FALSE(adversary::has_thin_pool(snap));
  EXPECT_THROW(adversary::ThinMetadataReader r(snap), util::MetadataError);
}

TEST(Attacks, NonpublicGrowthDefeatsMobiPluto) {
  auto disk = std::make_shared<blockdev::MemBlockDevice>(16384);
  baselines::MobiPlutoDevice::Config cfg;
  cfg.kdf_iterations = 16;
  cfg.chunk_blocks = 4;
  cfg.fs_inode_count = 128;
  cfg.thin_cpu = thin::ThinCpuModel::zero();
  cfg.crypt_cpu = dm::CryptCpuModel::zero();
  auto dev = baselines::MobiPlutoDevice::initialize(disk, cfg, kPub, kHid);

  dev->boot(kPub);
  dev->data_fs().write_file("/cover", payload(50000, 1));
  dev->reboot();
  const auto d0 = Snapshot::take(*disk);

  // Hidden session between two border crossings.
  dev->boot(kHid);
  dev->data_fs().write_file("/secret", payload(50000, 2));
  dev->reboot();
  dev->boot(kPub);
  dev->data_fs().write_file("/cover2", payload(50000, 3));
  dev->reboot();
  const auto d1 = Snapshot::take(*disk);

  adversary::ThinMetadataReader r0(d0), r1(d1);
  const auto rep = adversary::nonpublic_growth_attack(r0, r1);
  EXPECT_TRUE(rep.suspects_hidden_data);  // MobiPluto is busted

  // MobiCeal under the same attack survives: non-public growth exists but
  // is claimed as dummy traffic; the budget attack is the right tool and
  // it does not fire (tested in Attacks.DummyBudgetSparesMobiCeal).
}

TEST(Attacks, DummyBudgetSparesMobiCeal) {
  auto disk = std::make_shared<blockdev::MemBlockDevice>(16384);
  auto dev = core::MobiCealDevice::initialize(disk, mc_config(11), kPub,
                                              {kHid});
  dev->boot(kPub);
  dev->data_fs().write_file("/base", payload(80000, 1));
  dev->reboot();
  const auto d0 = Snapshot::take(*disk);

  dev->boot(kPub);
  for (int i = 0; i < 10; ++i) {
    dev->data_fs().write_file("/p" + std::to_string(i), payload(60000, i));
  }
  // Hidden session, small file, with the equal-size discipline.
  ASSERT_TRUE(dev->switch_to_hidden(kHid));
  dev->data_fs().write_file("/secret", payload(48 * 1024, 9));
  dev->reboot();
  dev->boot(kPub);
  dev->data_fs().write_file("/cover", payload(48 * 1024, 10));
  dev->reboot();
  const auto d1 = Snapshot::take(*disk);

  adversary::ThinMetadataReader r0(d0), r1(d1);
  const auto rep = adversary::dummy_budget_attack(r0, r1, /*lambda=*/1.0);
  EXPECT_FALSE(rep.suspects_hidden_data) << rep.reasoning;
}

TEST(Attacks, SequentialLayoutFlagsInterleaving) {
  auto disk = std::make_shared<blockdev::MemBlockDevice>(16384);
  baselines::MobiPlutoDevice::Config cfg;
  cfg.kdf_iterations = 16;
  cfg.chunk_blocks = 4;
  cfg.fs_inode_count = 128;
  cfg.skip_random_fill = true;
  cfg.thin_cpu = thin::ThinCpuModel::zero();
  cfg.crypt_cpu = dm::CryptCpuModel::zero();
  auto dev = baselines::MobiPlutoDevice::initialize(disk, cfg, kPub, kHid);
  // Interleave public and hidden writes: sequential allocation wedges the
  // hidden chunks between public ones.
  dev->boot(kPub);
  dev->data_fs().write_file("/p1", payload(50000, 1));
  dev->reboot();
  dev->boot(kHid);
  dev->data_fs().write_file("/h1", payload(50000, 2));
  dev->reboot();
  dev->boot(kPub);
  dev->data_fs().write_file("/p2", payload(50000, 3));
  dev->reboot();

  adversary::ThinMetadataReader meta(Snapshot::take(*disk));
  const auto rep = adversary::sequential_layout_attack(meta);
  EXPECT_TRUE(rep.suspects_hidden_data);
  EXPECT_GT(rep.statistic, 0.0);
}

TEST(SecurityGame, SmallGameShowsTheContrast) {
  // Scaled-down game (the full-size run lives in bench_security_game):
  // MobiPluto is perfectly distinguishable; MobiCeal resists the
  // paper-faithful budget adversary.
  adversary::GameConfig cfg;
  cfg.trials = 10;
  cfg.rounds = 2;
  cfg.public_files_per_round = 6;
  cfg.seed = 7;

  cfg.scheme = "mobipluto";
  const auto pluto = adversary::run_security_game(cfg);
  // "any growth" wins every trial against MobiPluto.
  EXPECT_NEAR(pluto.distinguishers[0].advantage(), 0.5, 1e-9);

  cfg.scheme = "mobiceal";
  const auto mc = adversary::run_security_game(cfg);
  // The budget adversary gains (almost) nothing on MobiCeal.
  EXPECT_LE(mc.distinguishers[1].advantage(), 0.25);
  // And "any growth" is useless (dummy writes fire in both worlds).
  EXPECT_LE(mc.distinguishers[0].advantage(), 0.3);
}

// ---- game parity --------------------------------------------------------------------------------

// Every distinguisher's correct/trials at four trials and the benches'
// seeds, per game and scheme. The games are deterministic per seed, so any
// restructuring of the trial loop, the user script or the world setup must
// leave these counts exactly as they are. A distinguisher missing from a
// result counts as 0/0.
namespace {

struct Tally {
  std::string name;
  std::uint64_t correct;
  std::uint64_t trials;
};

template <class Result>
void expect_tallies(const Result& r, const std::vector<Tally>& want) {
  for (const auto& w : want) {
    std::uint64_t correct = 0, trials = 0;
    for (const auto& d : r.distinguishers) {
      if (d.name == w.name) {
        correct = d.correct;
        trials = d.trials;
      }
    }
    EXPECT_EQ(correct, w.correct) << w.name;
    EXPECT_EQ(trials, w.trials) << w.name;
  }
  for (const auto& d : r.distinguishers) {
    EXPECT_TRUE(std::any_of(want.begin(), want.end(),
                            [&](const Tally& w) { return w.name == d.name; }))
        << "unpinned distinguisher " << d.name;
  }
}

}  // namespace

TEST(GameParity, ClassicGame) {
  adversary::GameConfig cfg;
  cfg.trials = 4;
  cfg.seed = 42;
  cfg.scheme = "mobiceal";
  expect_tallies(adversary::run_security_game(cfg),
                 {{"any-nonpublic-growth", 2, 4},
                  {"dummy-budget (paper adversary)", 2, 4},
                  {"mean-rate threshold", 1, 4}});
  cfg.scheme = "mobipluto";
  expect_tallies(adversary::run_security_game(cfg),
                 {{"any-nonpublic-growth", 4, 4},
                  {"dummy-budget (paper adversary)", 2, 4},
                  {"mean-rate threshold", 2, 4}});
}

TEST(GameParity, RebuildGame) {
  adversary::RebuildGameConfig cfg;
  cfg.trials = 4;
  cfg.seed = 1;
  const std::string growth = "rebuild-anygrowth (seized-spare window)";
  const std::string budget = "rebuild-budget (seized-spare window)";
  const std::string blockdiff = "rebuild-blockdiff (seized prefix)";
  cfg.scheme = "mobiceal";
  expect_tallies(adversary::run_rebuild_leak_game(cfg),
                 {{growth, 2, 4}, {budget, 2, 4}, {blockdiff, 2, 4}});
  cfg.scheme = "mobipluto";
  expect_tallies(adversary::run_rebuild_leak_game(cfg),
                 {{growth, 4, 4}, {budget, 2, 4}, {blockdiff, 2, 4}});
  // No thin pool to parse: only the block diff reads the seized prefix.
  cfg.scheme = "mobiflage";
  expect_tallies(adversary::run_rebuild_leak_game(cfg),
                 {{growth, 0, 0}, {budget, 0, 0}, {blockdiff, 2, 4}});
}

TEST(GameParity, FtlGame) {
  adversary::FtlGameConfig cfg;
  cfg.trials = 4;
  cfg.seed = 1;
  const std::string unaccounted = "ftl-unaccounted-programs";
  const std::string budget = "ftl-program-budget";
  const std::string tail = "ftl-tail-locality";
  cfg.scheme = "mobiceal";
  expect_tallies(adversary::run_ftl_game(cfg),
                 {{unaccounted, 2, 4}, {budget, 2, 4}, {tail, 2, 4}});
  cfg.scheme = "mobipluto";
  expect_tallies(adversary::run_ftl_game(cfg),
                 {{unaccounted, 4, 4}, {budget, 2, 4}, {tail, 2, 4}});
  // No thin pool to parse: tail locality alone judges Mobiflage. Seed 1
  // once drew a hidden offset too near the end of this 32 MiB span to
  // format the hidden volume; the volume is now sized before the draw.
  cfg.scheme = "mobiflage";
  expect_tallies(adversary::run_ftl_game(cfg),
                 {{unaccounted, 0, 0}, {budget, 0, 0}, {tail, 4, 4}});
  cfg.seed = 211;
  expect_tallies(adversary::run_ftl_game(cfg),
                 {{unaccounted, 0, 0}, {budget, 0, 0}, {tail, 4, 4}});
}

// ---- the game harness -----------------------------------------------------------------------

TEST(Game, RecordsEveryTrialInOrderAndSkipsInapplicableDistinguishers) {
  // World: the observation is the world bit itself. One distinguisher reads
  // it perfectly; one never applies (its test rejects the first
  // observation), so it records no verdict in any trial.
  adversary::Game<bool> game;
  game.world = [](bool hidden_world, std::uint64_t, util::Rng&) {
    return hidden_world;
  };
  auto report = [](bool guess, double statistic) {
    adversary::AttackReport r;
    r.suspects_hidden_data = guess;
    r.statistic = statistic;
    return r;
  };
  int blind_calls = 0;
  game.distinguishers = {
      {"oracle", [&](const bool& hidden) { return report(hidden, 1.0); }},
      {"blind",
       [&](const bool&) {
         ++blind_calls;
         return report(true, 0.0);
       },
       [](const bool&) { return false; }},
  };
  const adversary::GameResult r = game.play(16, 42);

  ASSERT_EQ(r.trials.size(), 16u);
  std::uint64_t hidden_trials = 0;
  for (const auto& t : r.trials) {
    ASSERT_EQ(t.verdicts.size(), 2u);
    ASSERT_TRUE(t.verdicts[0].has_value());
    EXPECT_EQ(t.verdicts[0]->suspects_hidden_data, t.hidden_world);
    EXPECT_FALSE(t.verdicts[1].has_value());
    hidden_trials += t.hidden_world ? 1 : 0;
  }
  ASSERT_GT(hidden_trials, 0u);
  ASSERT_LT(hidden_trials, 16u);
  EXPECT_EQ(blind_calls, 0);

  EXPECT_EQ(r.distinguisher("oracle").correct, 16u);
  EXPECT_EQ(r.distinguisher("oracle").trials, 16u);
  EXPECT_DOUBLE_EQ(r.distinguisher("oracle").advantage(), 0.5);
  EXPECT_EQ(r.distinguisher("blind").trials, 0u);
  EXPECT_DOUBLE_EQ(r.distinguisher("blind").advantage(), 0.0);
  EXPECT_DOUBLE_EQ(r.max_advantage(), 0.5);
  EXPECT_FALSE(r.all_applied());
  EXPECT_THROW(r.distinguisher("missing"), std::out_of_range);

  EXPECT_EQ(r.statistic("oracle", true).count(), hidden_trials);
  EXPECT_EQ(r.statistic("oracle", false).count(), 16u - hidden_trials);
  EXPECT_EQ(r.statistic("blind", true).count(), 0u);

  // Same seed, same record.
  const adversary::GameResult again = game.play(16, 42);
  for (std::size_t t = 0; t < r.trials.size(); ++t) {
    EXPECT_EQ(again.trials[t].hidden_world, r.trials[t].hidden_world);
  }
}

TEST(Game, AnApplicableDistinguisherMustJudgeEveryTrial) {
  // Applicability is decided on the first trial; a distinguisher that
  // applies and later cannot read its observation ends the game instead of
  // dropping the trial.
  adversary::Game<bool> game;
  game.world = [](bool hidden_world, std::uint64_t, util::Rng&) {
    return hidden_world;
  };
  game.distinguishers = {
      {"hidden-only",
       [](const bool& hidden) {
         if (!hidden) throw util::MetadataError("cover world");
         return adversary::AttackReport{};
       }},
  };
  EXPECT_THROW(game.play(16, 42), util::MetadataError);
}

TEST(Game, ThinDistinguishersDoNotApplyWithoutAThinPool) {
  adversary::GameConfig cfg;
  cfg.scheme = "mobiflage";
  cfg.trials = 2;
  cfg.rounds = 1;
  cfg.public_files_per_round = 2;
  const auto r = adversary::run_security_game(cfg);
  ASSERT_EQ(r.distinguishers.size(), 3u);
  for (const auto& d : r.distinguishers) EXPECT_EQ(d.trials, 0u) << d.name;
}

TEST(Game, SideChannelGameSeparatesSharedOsFromIsolation) {
  constexpr char kTrace[] = "persistent hidden-session trace";
  // Shared OS: every hidden session leaves a trace, no cover session does.
  const auto shared = adversary::run_side_channel_game(false, 6, 3);
  EXPECT_EQ(shared.distinguisher(kTrace).correct, 6u);
  EXPECT_EQ(shared.statistic(kTrace, false).max(), 0.0);
  // MobiCeal: no trace in either world, so the guess is always "cover".
  const auto isolated = adversary::run_side_channel_game(true, 6, 3);
  std::uint64_t cover_trials = 0;
  for (const auto& t : isolated.trials) cover_trials += t.hidden_world ? 0 : 1;
  EXPECT_EQ(isolated.distinguisher(kTrace).correct, cover_trials);
  EXPECT_EQ(isolated.statistic(kTrace, true).max(), 0.0);
}

// ---- side channel -----------------------------------------------------------------------------

namespace {
std::unique_ptr<core::AndroidHost> make_host(bool isolate,
                                             std::uint64_t seed) {
  auto disk = std::make_shared<blockdev::MemBlockDevice>(16384);
  auto clock = std::make_shared<util::SimClock>();
  auto dev = core::MobiCealDevice::initialize(disk, mc_config(seed), kPub,
                                              {kHid}, clock);
  core::AndroidHost::Options opt;
  opt.isolate_side_channels = isolate;
  opt.screen_lock_password = "0000";
  return std::make_unique<core::AndroidHost>(std::move(dev), clock, opt);
}
}  // namespace

TEST(SideChannel, MobiCealIsolationPreventsLeaks) {
  auto host = make_host(/*isolate=*/true, 21);
  host->power_on();
  ASSERT_EQ(host->enter_boot_password(kPub), core::AuthResult::kPublic);
  host->app_write_file("/holiday.jpg", payload(10000, 1));
  host->lock_screen();
  ASSERT_EQ(host->enter_lock_screen_password(kHid),
            core::AndroidHost::LockResult::kSwitchedToHidden);
  host->app_write_file("/protest_footage.mp4", payload(30000, 2));
  host->app_read_file("/protest_footage.mp4");
  host->reboot();

  const auto report = adversary::audit_side_channels(*host);
  EXPECT_FALSE(report.leaked());
  // tmpfs records died at reboot too.
  EXPECT_TRUE(host->tmpfs_records().empty());
  // The public activity is still there (nothing suspicious about that).
  EXPECT_FALSE(host->devlog_persistent().empty());
}

TEST(SideChannel, SharedOsDesignLeaks) {
  // HIVE/DEFY-style: no isolation step; hidden activity lands in
  // persistent logs — the Czeskis et al. attack succeeds.
  auto host = make_host(/*isolate=*/false, 22);
  host->power_on();
  ASSERT_EQ(host->enter_boot_password(kPub), core::AuthResult::kPublic);
  host->lock_screen();
  ASSERT_EQ(host->enter_lock_screen_password(kHid),
            core::AndroidHost::LockResult::kSwitchedToHidden);
  host->app_write_file("/protest_footage.mp4", payload(30000, 2));
  host->reboot();

  const auto report = adversary::audit_side_channels(*host);
  EXPECT_TRUE(report.leaked());
  EXPECT_EQ(report.devlog_leaks.size(), 1u);
  EXPECT_EQ(report.devlog_leaks[0], "/protest_footage.mp4");
}

TEST(SideChannel, WrongLockPasswordRejectedAndStaysPublic) {
  auto host = make_host(true, 23);
  host->power_on();
  ASSERT_EQ(host->enter_boot_password(kPub), core::AuthResult::kPublic);
  host->lock_screen();
  EXPECT_EQ(host->enter_lock_screen_password("garbage"),
            core::AndroidHost::LockResult::kRejected);
  EXPECT_EQ(host->device_mode(), core::Mode::kPublic);
  EXPECT_EQ(host->enter_lock_screen_password("0000"),
            core::AndroidHost::LockResult::kUnlocked);
}

TEST(SideChannel, FastSwitchIsUnder10SecondsOfVirtualTime) {
  // The headline usability number (Table II: 9.27 s vs >60 s reboot).
  auto host = make_host(true, 24);
  host->power_on();
  ASSERT_EQ(host->enter_boot_password(kPub), core::AuthResult::kPublic);
  host->lock_screen();
  const double t0 = host->clock().now_seconds();
  ASSERT_EQ(host->enter_lock_screen_password(kHid),
            core::AndroidHost::LockResult::kSwitchedToHidden);
  const double switch_s = host->clock().now_seconds() - t0;
  EXPECT_LT(switch_s, 10.0);
  EXPECT_GT(switch_s, 5.0);

  const double t1 = host->clock().now_seconds();
  host->reboot();
  ASSERT_EQ(host->enter_boot_password(kPub), core::AuthResult::kPublic);
  const double reboot_s = host->clock().now_seconds() - t1;
  EXPECT_GT(reboot_s, 40.0);  // exit requires the full reboot
}
