// Side-channel attack experiment (Sec. IV-D): the Czeskis et al. [23]
// attack that breaks HIVE and DEFY — hidden activity recorded by the shared
// OS in public places — against (a) MobiCeal's isolation countermeasure and
// (b) a shared-OS configuration modelling how HIVE/DEFY-style designs
// co-host public and hidden state.
//
// Per configuration: a leak census (every session in the hidden world,
// audited) and the side-channel game (world by coin flip, guessed from the
// audit). Gates (exit nonzero): MobiCeal leak-free and the shared OS
// leaking, always armed (deterministic); the shared OS's game won, armed
// from adversary::kMinArmedTrials trials (the game's default count).
#include <cstdio>

#include "adversary/side_channel.hpp"
#include "harness.hpp"

using namespace mobiceal;

int main(int argc, char** argv) {
  bench::JsonReport json("side_channel", argc, argv);
  const int reps = bench::env_bench_reps(5);
  std::printf("== Side-channel audit: hidden-session traces found in "
              "persistent /devlog + /cache (%d sessions, %d hidden files "
              "each) ==\n\n", reps, adversary::kSessionFiles);

  std::size_t mobiceal_leaks = 0, shared_os_leaks = 0;
  for (int rep = 0; rep < reps; ++rep) {
    mobiceal_leaks +=
        adversary::side_channel_session(true, true, 7000 + rep).total();
    shared_os_leaks +=
        adversary::side_channel_session(false, true, 8000 + rep).total();
  }
  std::printf("%-42s %zu leaks\n", "MobiCeal (tmpfs isolation, Sec. IV-D):",
              mobiceal_leaks);
  std::printf("%-42s %zu leaks\n", "Shared-OS design (HIVE/DEFY-style):",
              shared_os_leaks);
  json.add("mobiceal.leaks_count", static_cast<double>(mobiceal_leaks));
  json.add("shared_os.leaks_count", static_cast<double>(shared_os_leaks));

  const auto trials = static_cast<std::uint64_t>(
      bench::env_bench_reps(static_cast<int>(adversary::kMinArmedTrials)));
  std::printf("\n== Side-channel game (%llu trials) ==\n",
              static_cast<unsigned long long>(trials));
  double shared_os_adv = 0.0;
  for (const bool isolate : {true, false}) {
    const char* label = isolate ? "mobiceal" : "shared_os";
    const adversary::GameResult r = adversary::run_side_channel_game(
        isolate, trials, isolate ? 7000 : 8000);
    for (const auto& d : r.distinguishers) {
      std::printf("%-10s %-32s correct %2llu/%2llu   advantage %.3f\n",
                  label, d.name.c_str(),
                  static_cast<unsigned long long>(d.correct),
                  static_cast<unsigned long long>(d.trials), d.advantage());
      json.add(std::string(label) + "." + d.name + "_adv", d.advantage());
    }
    if (!isolate) shared_os_adv = r.max_advantage();
  }

  // Every hidden write leaves one record in /devlog and one in /cache.
  const bool all_traced =
      shared_os_leaks ==
      static_cast<std::size_t>(reps) * adversary::kSessionFiles * 2;
  // MobiCeal's empty audit always guesses "cover", so its advantage is only
  // the coin's imbalance and is not gated.
  const bool armed = trials >= adversary::kMinArmedTrials;
  const bool g_game = !armed || shared_os_adv >= 0.3;
  std::printf("\n-- shape checks --\n");
  std::printf("MobiCeal leak-free:           %s\n",
              mobiceal_leaks == 0 ? "yes" : "NO");
  std::printf("Shared-OS design compromised: %s (every hidden write "
              "traced: %s)\n", shared_os_leaks > 0 ? "yes" : "NO",
              all_traced ? "yes" : "partial");
  std::printf("Shared-OS game won (adv >= 0.3): %s (%.3f)%s\n",
              g_game ? "yes" : "NO", shared_os_adv,
              armed ? "" : " [ungated: too few trials]");
  return mobiceal_leaks == 0 && shared_os_leaks > 0 && g_game ? 0 : 1;
}
