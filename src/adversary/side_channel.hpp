// Side-channel auditor — the attack of Czeskis et al. [23] that defeats
// HIVE and DEFY (Sec. IV-D): even when the hidden volume itself is sound,
// the shared OS records hidden activity in *public* places (logs, caches,
// recent-file lists). A multi-snapshot adversary just greps the public
// partitions for traces that the decoy story cannot explain.
//
// MobiCeal's countermeasure — unmounting /data, /cache and /devlog and
// remounting tmpfs before hidden mode — makes the persistent stores
// trace-free; the auditor verifies exactly that, and run_side_channel_game
// plays it as a game of adversary/game.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "adversary/game.hpp"
#include "core/android_host.hpp"

namespace mobiceal::adversary {

struct SideChannelReport {
  /// Hidden-session records found in persistent /devlog.
  std::vector<std::string> devlog_leaks;
  /// Hidden-session records found in persistent /cache.
  std::vector<std::string> cache_leaks;

  bool leaked() const {
    return !devlog_leaks.empty() || !cache_leaks.empty();
  }
  std::size_t total() const {
    return devlog_leaks.size() + cache_leaks.size();
  }
};

/// Scans the host's persistent stores for records created during hidden
/// sessions. In the paper's model the adversary cannot label records as
/// "hidden" a priori; it cross-references paths against what the decoy
/// (public) filesystem can account for. Here the host's records carry the
/// ground-truth flag, so the audit is exact: any persistent record from a
/// hidden session is a leak the user cannot deny.
SideChannelReport audit_side_channels(const core::AndroidHost& host);

/// Files each session writes after the screen lock.
inline constexpr int kSessionFiles = 4;

/// One session on a MobiCeal phone (core::AndroidHost), audited at the
/// next border crossing: five public photos, then a screen lock. The
/// hidden world unlocks into the hidden volume by lock-screen switch
/// (Sec. IV-B); the cover world unlocks with the screen-lock PIN. Both then
/// write the same kSessionFiles files and reboot. `isolate` turns on
/// MobiCeal's tmpfs countermeasure; without it the host models a
/// HIVE/DEFY-style shared OS.
SideChannelReport side_channel_session(bool isolate, bool hidden_world,
                                       std::uint64_t seed);

/// side_channel_session as a game with one distinguisher, "persistent
/// hidden-session trace": it guesses hidden iff the audit finds any.
GameResult run_side_channel_game(bool isolate, std::uint64_t trials,
                                 std::uint64_t seed);

}  // namespace mobiceal::adversary
