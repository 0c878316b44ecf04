// One harness for every security game of docs/ADVERSARY.md.
//
// Each game is an instance of the multi-snapshot game of Sec. III-C
// (Setup / Training / Guess, bounded by Theorem VI.2): a *world*,
// (hidden_world, trial_seed, rng) -> observation, and named
// *distinguishers*, observation -> AttackReport (verdict and statistic).
// Game::play owns the only trial loop and returns one record per trial, in
// trial order; tallies and side statistics derive from that record.
//
// Not applicable is decided once per game, on the first trial's
// observation (the thin-metadata attacks ask whether the scheme has a thin
// pool; Mobiflage has none): such a distinguisher records no verdict in
// any trial and tallies 0/0. One that applies must judge every trial; any
// error it throws (a checksum mismatch, a missing volume) ends the game.
//
// GameUser is the only copy of the paper's user steps (Sec. IV-B) on an
// api::PdeScheme; the block-level worlds share it.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "adversary/attacks.hpp"
#include "api/pde_scheme.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace mobiceal::adversary {

/// Below this many trials a single trial moves an advantage by more than
/// 1/8, too coarse to tell 0 from 1/2: the benches' advantage checks stay
/// unarmed (they still play every world end to end).
inline constexpr std::uint64_t kMinArmedTrials = 8;

/// What every game shares: the scheme under attack, trial count and seed,
/// the user's workload, and the stack geometry.
struct GameSetup {
  /// SchemeRegistry key of the system under attack (needs kHiddenVolume).
  std::string scheme = "mobiceal";
  std::uint64_t trials = 24;
  std::uint32_t public_files_per_round = 10;
  std::uint32_t public_file_bytes = 96 * 1024;
  std::uint32_t hidden_file_bytes = 64 * 1024;
  /// Paper user discipline: after storing hidden data, store a file of
  /// approximately equal size in the public volume (Sec. IV-B).
  bool equal_size_discipline = true;
  std::uint64_t disk_blocks = 16384;  // 64 MiB virtual userdata
  std::uint32_t num_volumes = 6;
  std::uint32_t chunk_blocks = 4;
  double lambda = 1.0;
  std::uint32_t x = 50;
  std::uint64_t seed = 1;
};

/// The multi-round games (security_game.hpp, and its raw-flash replay in
/// ftl_attacks.hpp): baseline seizure, `rounds` rounds of use, last seizure.
struct GameConfig : GameSetup {
  std::uint32_t rounds = 3;  // rounds between the two seizures
};

/// One distinguisher's tally over a game.
struct DistinguisherResult {
  std::string name;
  std::uint64_t correct = 0;
  std::uint64_t trials = 0;  // trials it applied to
  double advantage() const {
    if (trials == 0) return 0.0;
    return std::abs(static_cast<double>(correct) /
                        static_cast<double>(trials) -
                    0.5);
  }
};

struct TrialRecord {
  bool hidden_world = false;
  /// One per distinguisher, in distinguisher order; empty where it could
  /// not read the observation.
  std::vector<std::optional<AttackReport>> verdicts;
};

struct GameResult {
  std::vector<TrialRecord> trials;  // in trial order
  /// Tallies of `trials`, one per distinguisher, in distinguisher order.
  std::vector<DistinguisherResult> distinguishers;

  /// Throws std::out_of_range for a name the game does not have.
  const DistinguisherResult& distinguisher(const std::string& name) const;
  /// The named distinguisher's statistic over the trials of one world.
  util::RunningStats statistic(const std::string& name,
                               bool hidden_world) const;
  /// The strongest distinguisher's advantage.
  double max_advantage() const;
  /// Every distinguisher judged every trial: a "holds" check on a scheme
  /// whose distinguishers all apply must see this, or 0/0 would pass it.
  bool all_applied() const;
};

/// Tallies the `index`-th distinguisher's verdicts over `trials`.
DistinguisherResult tally(const std::string& name,
                          const std::vector<TrialRecord>& trials,
                          std::size_t index);

template <class Observation>
struct Distinguisher {
  std::string name;
  std::function<AttackReport(const Observation&)> decide;
  /// Whether `decide` can read this game's observations at all, asked of
  /// the first trial's observation only; null means it always can.
  std::function<bool(const Observation&)> applies = nullptr;
};

template <class Observation>
struct Game {
  using World = std::function<Observation(
      bool hidden_world, std::uint64_t trial_seed, util::Rng& rng)>;

  World world;
  std::vector<Distinguisher<Observation>> distinguishers;

  /// Deterministic per (trials, seed).
  GameResult play(std::uint64_t trials, std::uint64_t seed) const {
    GameResult result;
    result.trials.reserve(trials);
    std::vector<bool> applies;
    util::Xoshiro256 master(seed);
    for (std::uint64_t t = 0; t < trials; ++t) {
      TrialRecord record;
      record.verdicts.reserve(distinguishers.size());
      record.hidden_world = master.next_below(2) == 0;
      const std::uint64_t trial_seed = master.next_u64();
      util::Xoshiro256 rng(master.next_u64());
      const Observation obs = world(record.hidden_world, trial_seed, rng);
      if (t == 0) {
        for (const auto& d : distinguishers) {
          applies.push_back(!d.applies || d.applies(obs));
        }
      }
      for (std::size_t i = 0; i < distinguishers.size(); ++i) {
        if (applies[i]) {
          record.verdicts.emplace_back(distinguishers[i].decide(obs));
        } else {
          record.verdicts.emplace_back();  // not applicable
        }
      }
      result.trials.push_back(std::move(record));
    }
    for (std::size_t i = 0; i < distinguishers.size(); ++i) {
      result.distinguishers.push_back(
          tally(distinguishers[i].name, result.trials, i));
    }
    return result;
  }
};

/// The paper's user on one freshly formatted api::PdeScheme. Every mode
/// change must succeed (util::PolicyError otherwise): a silent fall-through
/// would write the "hidden" payload into the public volume and corrupt the
/// measured advantage.
class GameUser {
 public:
  /// Formats `cfg.scheme` over `device`, seeded by `trial_seed`; file
  /// payloads and sizes draw from `rng`. `password_tag` prefixes the two
  /// passwords.
  GameUser(const GameSetup& cfg,
           std::shared_ptr<blockdev::BlockDevice> device,
           std::uint64_t trial_seed, util::Rng& rng,
           std::shared_ptr<util::SimClock> clock = nullptr,
           const std::string& password_tag = "game");

  void boot_public();
  void reboot() { dev_->reboot(); }
  void write_file(const std::string& path, std::size_t n);
  /// Stores `n` bytes in the hidden volume — by lock-screen fast switch
  /// where the scheme has one, by a reboot into hidden mode otherwise —
  /// then reboots back into public mode.
  void store_hidden(const std::string& path, std::size_t n);

  /// Public use before the first seizure: boot, two files, reboot.
  void baseline();
  /// One round of use in public mode: the round's public files, then the
  /// hidden store (hidden world) or its plausible public equivalent
  /// (cover world), then the equal-size cover file. Paths end in `suffix`.
  void round(bool hidden_world, const std::string& suffix);
  /// `count` rounds, each followed by a reboot.
  void rounds(bool hidden_world, std::uint32_t count);

  /// Numbers the public files of every round and any extra ones.
  int next_file_id() { return file_id_++; }
  /// Payload bytes written so far, public and hidden.
  std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  void must_unlock(const std::string& password, api::VolumeClass want);

  const GameSetup& cfg_;
  util::Rng& rng_;
  const std::string pub_;
  const std::string hid_;
  std::unique_ptr<api::PdeScheme> dev_;
  int file_id_ = 0;
  std::uint64_t bytes_written_ = 0;
};

}  // namespace mobiceal::adversary
