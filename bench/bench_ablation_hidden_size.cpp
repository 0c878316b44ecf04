// Ablation D — how much hidden data can the dummy traffic actually cover?
//
// The paper's user discipline (Sec. IV-B: "store a file with approximately
// equal size in the public volume after storing a large file in the hidden
// volume") exists because the dummy budget scales with public traffic. We
// sweep the hidden/public volume ratio and measure the empirical advantage
// of the strongest simple distinguisher (the mean-rate threshold) plus the
// paper-faithful budget adversary, quantifying where deniability degrades.
#include <cstdio>

#include "adversary/security_game.hpp"
#include "harness.hpp"

using namespace mobiceal;
using adversary::GameConfig;

int main(int argc, char** argv) {
  bench::JsonReport json("ablation_hidden_size", argc, argv);
  const int trials = bench::env_bench_reps(16);
  std::printf("== Ablation: hidden-data size vs adversary advantage "
              "(MobiCeal, %d trials per point) ==\n\n", trials);
  std::printf("%22s %18s %22s %26s\n", "hidden/public ratio",
              "budget advantage", "mean-rate advantage",
              "nonpublic hidden vs cover");

  // Public traffic per round: 10 files x ~96 KB = ~960 KB.
  const std::uint32_t public_bytes = 96 * 1024;
  for (const double ratio : {0.05, 0.15, 0.4, 1.0}) {
    GameConfig cfg;
    cfg.scheme = "mobiceal";
    cfg.trials = static_cast<std::uint64_t>(trials);
    cfg.rounds = 3;
    cfg.public_files_per_round = 10;
    cfg.public_file_bytes = public_bytes;
    cfg.hidden_file_bytes = static_cast<std::uint32_t>(
        ratio * 10 * public_bytes);
    cfg.seed = 77 + static_cast<std::uint64_t>(ratio * 100);
    const auto r = adversary::run_security_game(cfg);
    const double budget =
        r.distinguisher("dummy-budget (paper adversary)").advantage();
    const double mean_rate =
        r.distinguisher("mean-rate threshold").advantage();
    std::printf("%21.2f %18.3f %22.3f %15.1f vs %.1f chunks/trial\n", ratio,
                budget, mean_rate,
                r.statistic("any-nonpublic-growth", true).mean(),
                r.statistic("any-nonpublic-growth", false).mean());
    char key[32];
    std::snprintf(key, sizeof key, "ratio%.2f", ratio);
    json.add(std::string(key) + ".budget_adv", budget);
    json.add(std::string(key) + ".meanrate_adv", mean_rate);
  }

  std::printf("\nReading: small hidden payloads (the paper's expectation — "
              "\"sensitive data ... are usually small in size\") vanish in "
              "the dummy-traffic variance; as the hidden volume approaches "
              "the public traffic volume, simple statistics start to bite, "
              "which is exactly why the equal-size discipline exists.\n");
  return 0;
}
