#include "adversary/rebuild_game.hpp"

#include <memory>

#include "blockdev/block_device.hpp"
#include "blockdev/fault_injector.hpp"
#include "dm/mirror_target.hpp"

namespace mobiceal::adversary {

namespace {

/// What the adversary holds after one trial: the pre-degradation border
/// snapshot and the spare seized mid-rebuild. The seized image is genuine
/// only in [0, watermark * block_size); the tail is the spare's virgin
/// zeros — the adversary holds nothing there.
struct SeizedSpare {
  Snapshot s0;
  Snapshot seized;
  std::uint64_t watermark = 0;
  /// Total payload bytes the user (publicly) accounts for in the
  /// S0 -> seizure window — public files, the hidden-or-equivalent store,
  /// and the cover file. Equal across worlds by construction.
  std::uint64_t window_payload_bytes = 0;
};

SeizedSpare play_world(const RebuildGameConfig& cfg, bool hidden_world,
                       std::uint64_t trial_seed, util::Rng& rng) {
  // 2-way mirror: leg 0 is the canonical image the border snapshots read;
  // leg 1 sits behind a FaultInjector so the degradation goes through the
  // real fault-discovery path (drop_now -> MemberDead -> member kicked).
  auto leg0 = std::make_shared<blockdev::MemBlockDevice>(cfg.disk_blocks);
  auto leg1 = std::make_shared<blockdev::MemBlockDevice>(cfg.disk_blocks);
  auto injector =
      std::make_shared<blockdev::FaultInjector>(blockdev::FaultPlan{});
  auto mirror = std::make_shared<dm::MirrorTarget>(
      std::vector<std::shared_ptr<blockdev::BlockDevice>>{
          leg0, std::make_shared<blockdev::FaultInjectedDevice>(leg1,
                                                                injector)});
  GameUser user(cfg, mirror, trial_seed, rng);

  // Baseline public use on the healthy array, then border snapshot S0.
  user.baseline();
  SeizedSpare obs;
  obs.s0 = Snapshot::take(*leg0);

  // Leg 1 dies; the mirror discovers it on the next I/O and degrades.
  injector->drop_now();

  // The observation window: public use plus the world-dependent store.
  const std::uint64_t window_start = user.bytes_written();
  user.round(hidden_world, "");

  // Online rebuild onto a spare, foreground I/O continuing between copy
  // steps, until the watermark crosses the seizure point.
  auto spare = std::make_shared<blockdev::MemBlockDevice>(cfg.disk_blocks);
  mirror->attach_spare(spare);
  const std::uint64_t seize_at =
      cfg.disk_blocks * cfg.seize_permille / 1000;
  int step = 0;
  while (mirror->rebuilding() && mirror->rebuild_watermark() < seize_at) {
    mirror->rebuild_step(cfg.rebuild_step_blocks);
    if (++step % 4 == 0) {
      user.write_file("/fg" + std::to_string(user.next_file_id()),
                      cfg.public_file_bytes / 4);
    }
  }
  obs.window_payload_bytes = user.bytes_written() - window_start;

  // Seizure: the adversary images the half-rebuilt spare. Everything past
  // the watermark is the spare's virgin zeros; [0, watermark) is the
  // logical image as of mid-rebuild — including, for thin schemes, the
  // whole metadata region at the device start.
  obs.watermark = mirror->rebuild_watermark();
  obs.seized = Snapshot::take(*spare);

  // Life goes on: more public use, and the rebuild runs to completion
  // (promotion makes the spare a full member).
  user.write_file("/post0", cfg.public_file_bytes);
  while (mirror->rebuilding()) {
    mirror->rebuild_step(cfg.rebuild_step_blocks);
  }
  user.write_file("/post1", cfg.public_file_bytes / 2);
  user.reboot();

  // Invariants, not distinguishers: the rebuild completed, and after
  // promotion and quiesce the rebuilt member is bit-identical to the
  // canonical leg.
  if (mirror->rebuilds_completed() != 1) {
    throw util::PolicyError("rebuild game: the rebuild did not complete");
  }
  if (leg0->snapshot() != spare->snapshot()) {
    throw util::PolicyError(
        "rebuild game: promoted spare diverged from the canonical member");
  }
  return obs;
}

/// The seized prefix [0, watermark) of `snap`.
Snapshot prefix(const Snapshot& snap, std::uint64_t watermark) {
  const auto end = snap.image.begin() +
                   static_cast<std::ptrdiff_t>(watermark * snap.block_size);
  return Snapshot{util::Bytes(snap.image.begin(), end), snap.block_size};
}

}  // namespace

GameResult run_rebuild_leak_game(const RebuildGameConfig& cfg) {
  Game<SeizedSpare> game;
  game.world = [&cfg](bool hidden_world, std::uint64_t trial_seed,
                      util::Rng& rng) {
    return play_world(cfg, hidden_world, trial_seed, rng);
  };
  // The thin-metadata attacks read the narrow S0 -> seizure window the
  // spare opens: the seized prefix covers the metadata region, so the
  // mid-rebuild pool state parses like any border snapshot.
  const auto thin = [](const SeizedSpare& o) { return has_thin_pool(o.s0); };
  game.distinguishers = {
      {"rebuild-anygrowth (seized-spare window)",
       [](const SeizedSpare& o) {
         return nonpublic_growth_attack(ThinMetadataReader(o.s0),
                                        ThinMetadataReader(o.seized));
       },
       thin},
      {"rebuild-budget (seized-spare window)",
       [&cfg](const SeizedSpare& o) {
         return dummy_budget_attack(ThinMetadataReader(o.s0),
                                    ThinMetadataReader(o.seized),
                                    cfg.lambda);
       },
       thin},
      // Changed blocks of the seized prefix against twice the publicly
      // accountable payload.
      {"rebuild-blockdiff (seized prefix)",
       [](const SeizedSpare& o) {
         const DiffResult diff = diff_snapshots(prefix(o.s0, o.watermark),
                                                prefix(o.seized, o.watermark));
         AttackReport r;
         r.statistic = static_cast<double>(diff.total_changed());
         r.threshold = 2.0 * static_cast<double>(o.window_payload_bytes) /
                       static_cast<double>(o.s0.block_size);
         r.suspects_hidden_data = r.statistic > r.threshold;
         return r;
       }},
  };
  return game.play(cfg.trials, cfg.seed);
}

}  // namespace mobiceal::adversary
