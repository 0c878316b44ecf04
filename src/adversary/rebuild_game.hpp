// The rebuild-leak security game: what does a half-rebuilt mirror member
// leak to a multi-snapshot adversary?
//
// A mirror rebuild copies the array image onto a spare front-to-back. An
// adversary who seizes the spare mid-rebuild (a border agent imaging a
// phone whose storage is resilvering, or a discarded/RMA'd spare drive)
// holds the prefix [0, watermark) of the logical image AS OF MID-REBUILD —
// an extra temporal snapshot *between* the border crossings the classic
// multi-snapshot game models. dm-thin keeps its metadata at the device
// start, so any useful watermark hands the adversary a full mid-time
// metadata image to difference against the surrounding snapshots.
//
// The game (a world of adversary/game.hpp): per trial, flip a fair
// coin; degrade a 2-way mirror under the scheme; in the hidden world store
// a sensitive file (plus the paper's equal-size cover discipline), in the
// cover world store the plausible public equivalent; rebuild onto a spare
// to ~half the device under foreground traffic and let the adversary seize
// it; finish the rebuild. Three distinguishers (docs/ADVERSARY.md, Game 3)
// guess the world from the border snapshot S0 and the seized spare prefix:
// two read the thin metadata of the narrow S0 -> mid window (and never
// apply to Mobiflage, which has no thin pool), one counts raw changed
// blocks against the payload the user accounts for.
#pragma once

#include <cstdint>

#include "adversary/game.hpp"

namespace mobiceal::adversary {

/// The user plays one round (`public_files_per_round` files) in the window.
struct RebuildGameConfig : GameSetup {
  RebuildGameConfig() {
    trials = 16;
    public_files_per_round = 8;
  }
  /// Blocks copied per rebuild_step while the foreground keeps writing.
  std::uint64_t rebuild_step_blocks = 512;
  /// The adversary seizes the spare once the watermark passes this
  /// fraction of the device (in 1/1000ths; 500 = half).
  std::uint32_t seize_permille = 500;
};

/// Runs the full game. Deterministic per (config.seed). Every trial's
/// rebuild must complete with the promoted spare bit-identical to the
/// canonical member (util::PolicyError otherwise).
GameResult run_rebuild_leak_game(const RebuildGameConfig& config);

}  // namespace mobiceal::adversary
