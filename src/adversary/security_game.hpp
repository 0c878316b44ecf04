// Empirical instantiation of the multi-snapshot security game of Sec. III-C
// (Setup / Training / Guess), run against the real implementations.
//
// Each trial: the simulator flips a fair coin b, prepares a device, and
// executes `rounds` access-pattern pairs that differ only in hidden
// activity (b = 0: the user stores a sensitive file via fast switch;
// b = 1: the same volume of data goes to the public volume instead —
// "operations can be plausibly applied to one of public volumes"). The
// adversary images the device after the baseline use and after the last
// round. The distinguishers then guess b from the two snapshots, the
// coerced decoy password, and full design knowledge.
//
// Theorem VI.2 predicts advantage ≈ 0 for MobiCeal; the same game against
// MobiPluto (no dummy writes) yields advantage ≈ 1/2 (the distinguisher is
// always right) — that contrast is the headline security result.
//
// The game is scheme-agnostic: `scheme` names any registered api::PdeScheme
// with a hidden volume (GameUser plays the paper's user steps). The
// distinguishers read dm-thin on-disk metadata, so on schemes without a
// thin pool (e.g. "mobiflage") they never apply and tally 0/0.
#pragma once

#include "adversary/game.hpp"

namespace mobiceal::adversary {

/// Runs the full game. Deterministic per (config.seed).
GameResult run_security_game(const GameConfig& config);

}  // namespace mobiceal::adversary
