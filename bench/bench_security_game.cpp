// Multi-snapshot security game (Sec. III-C, Theorem VI.2), run empirically
// against every registered scheme that has a hidden volume to attack.
//
// Shape targets:
//   * MobiPluto: the trivial "any non-public growth" distinguisher wins
//     every trial — advantage 0.5 (complete deniability failure);
//   * MobiCeal: the paper-faithful dummy-budget adversary gains ~nothing;
//     the stronger mean-rate distinguisher gains only a small margin that
//     shrinks as public traffic grows (quantified here).
//
// The distinguishers read dm-thin metadata, so on schemes without it (e.g.
// Mobiflage) they never apply and report 0/0. The shape checks exit
// nonzero, armed from adversary::kMinArmedTrials trials.
#include <cstdio>
#include <map>
#include <string>

#include "adversary/security_game.hpp"
#include "api/scheme_registry.hpp"
#include "harness.hpp"

using namespace mobiceal;
using adversary::GameConfig;

namespace {
constexpr char kGrowth[] = "any-nonpublic-growth";
constexpr char kBudget[] = "dummy-budget (paper adversary)";

void print_result(const std::string& label, const adversary::GameResult& r) {
  std::printf("%s\n", label.c_str());
  for (const auto& d : r.distinguishers) {
    std::printf("  %-32s correct %2llu/%2llu   advantage %.3f\n",
                d.name.c_str(), static_cast<unsigned long long>(d.correct),
                static_cast<unsigned long long>(d.trials), d.advantage());
  }
  const auto hidden = r.statistic(kGrowth, true);
  const auto cover = r.statistic(kGrowth, false);
  if (hidden.count() + cover.count() > 0) {
    std::printf("  non-public growth per trial: hidden world %.1f ± %.1f, "
                "cover world %.1f ± %.1f chunks\n",
                hidden.mean(), hidden.stddev(), cover.mean(), cover.stddev());
  }
  std::printf("\n");
}
}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport json("security_game", argc, argv);
  const int reps = bench::env_bench_reps(24);

  GameConfig cfg;
  cfg.trials = static_cast<std::uint64_t>(reps);
  cfg.rounds = 3;
  cfg.public_files_per_round = 10;
  cfg.seed = 42;

  std::printf("== Multi-snapshot security game (%llu trials, baseline + "
              "%u-round snapshots each) ==\n\nregistered schemes:\n",
              static_cast<unsigned long long>(cfg.trials), cfg.rounds);
  for (const auto& name : api::SchemeRegistry::names()) {
    std::printf("  %-12s [%s]\n", name.c_str(),
                api::SchemeRegistry::entry(name).capabilities.to_string()
                    .c_str());
  }
  std::printf("\n");

  std::map<std::string, adversary::GameResult> results;
  for (const auto& name : api::SchemeRegistry::names()) {
    const auto& entry = api::SchemeRegistry::entry(name);
    if (!entry.capabilities.has(api::Capability::kHiddenVolume)) continue;
    cfg.scheme = name;
    results[name] = adversary::run_security_game(cfg);
    print_result(name + " (" + entry.description + "):", results[name]);
  }

  // The headline contrast (Theorem VI.2): both systems looked up through
  // the registry, nothing instantiated concretely.
  for (const auto& [name, r] : results) {
    for (const auto& d : r.distinguishers) {
      json.add(name + "." + d.name + "_adv", d.advantage());
    }
  }

  const bool armed = cfg.trials >= adversary::kMinArmedTrials;
  auto check = [armed](const char* label, double adv, bool holds) {
    std::printf("%-48s %s (%.3f)%s\n", label, !armed || holds ? "yes" : "NO",
                adv, armed ? "" : " [ungated: too few trials]");
    return !armed || holds;
  };
  const double pluto =
      results.at("mobipluto").distinguisher(kGrowth).advantage();
  // MobiCeal holds only where every distinguisher judged every trial:
  // a 0/0 tally reads advantage 0 too.
  const auto& mc = results.at("mobiceal");
  const double mc_budget = mc.distinguisher(kBudget).advantage();
  const double mc_growth = mc.distinguisher(kGrowth).advantage();
  std::printf("-- shape checks --\n");
  bool ok = check("MobiPluto fully distinguished (adv ~0.5):", pluto,
                  pluto > 0.4);
  ok = check("MobiCeal vs paper adversary (budget) adv <0.15:", mc_budget,
             mc.all_applied() && mc_budget < 0.15) && ok;
  ok = check("MobiCeal vs any-growth adversary adv <0.2:", mc_growth,
             mc.all_applied() && mc_growth < 0.2) && ok;
  return ok ? 0 : 1;
}
