#include "adversary/security_game.hpp"

#include "blockdev/block_device.hpp"

namespace mobiceal::adversary {

namespace {

/// The border snapshots before and after the observation window.
struct ThinWindow {
  Snapshot first;
  Snapshot last;
};

}  // namespace

GameResult run_security_game(const GameConfig& cfg) {
  Game<ThinWindow> game;
  game.world = [&cfg](bool hidden_world, std::uint64_t trial_seed,
                      util::Rng& rng) {
    auto disk = std::make_shared<blockdev::MemBlockDevice>(cfg.disk_blocks);
    GameUser user(cfg, disk, trial_seed, rng);
    user.baseline();
    ThinWindow obs{Snapshot::take(*disk), {}};
    user.rounds(hidden_world, cfg.rounds);
    obs.last = Snapshot::take(*disk);
    return obs;
  };
  const auto thin = [](const ThinWindow& w) { return has_thin_pool(w.first); };
  game.distinguishers = {
      // Any non-public growth at all.
      {"any-nonpublic-growth",
       [](const ThinWindow& w) {
         return nonpublic_growth_attack(ThinMetadataReader(w.first),
                                        ThinMetadataReader(w.last));
       },
       thin},
      // The paper-faithful dummy-budget bound.
      {"dummy-budget (paper adversary)",
       [&cfg](const ThinWindow& w) {
         return dummy_budget_attack(ThinMetadataReader(w.first),
                                    ThinMetadataReader(w.last), cfg.lambda);
       },
       thin},
      {"mean-rate threshold",
       [&cfg](const ThinWindow& w) {
         return mean_rate_attack(ThinMetadataReader(w.first),
                                 ThinMetadataReader(w.last), cfg.lambda,
                                 cfg.x);
       },
       thin},
  };
  return game.play(cfg.trials, cfg.seed);
}

}  // namespace mobiceal::adversary
