// FTL bench: the MobiCeal stack over ftl::FtlDevice — GC pressure, wear
// spread, logical parity against the block-level stack, and the raw-flash
// seizure game of arXiv 2203.16349 against three schemes.
//
// Scenarios:
//   * gc-pressure  — dd write + repeated Bonnie rewrites through an FTL-on
//     MobiCeal stack, sized so the over-provisioned pool must garbage-
//     collect: records throughput, write amplification, relocations,
//     erases, and the wear spread the round-robin free-block picker keeps
//     tight.
//   * parity       — the SAME op sequence FTL-on and FTL-off must leave
//     bit-identical logical images (ftl_parity_adv): the FTL moves data
//     out of place and relocates it, but never changes what the stack
//     reads back.
//   * raw-flash game — run_ftl_game over mobiceal / mobipluto / mobiflage
//     with the adversary imaging the physical page array. MobiPluto and
//     Mobiflage are EXPECTED to fall (their block-level deniability does
//     not survive flash history); the committed canaries are therefore
//     inverted — <scheme>.ftl_breach_expected_adv is 0 while the attack
//     keeps working and jumps to 1 if it ever stops (a silent change in
//     the FTL or the adversary, which must fail the gate). MobiCeal's
//     dummy writes cover the flash history too: its raw advantages are
//     committed directly and gated against growth like every _adv metric.
//
// Gates (exit nonzero, canaries mirrored by bench_compare.py):
//   * FTL-on / FTL-off logical parity;
//   * GC actually exercised (relocations > 0, erases > 0) and the device
//     stays writable (free pages never exhausted);
//   * from adversary::kMinArmedTrials trials: mobipluto and mobiflage
//     breached (adv >= 0.3), mobiceal holding (max adv <= 0.2).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "adversary/ftl_attacks.hpp"
#include "ftl/ftl_device.hpp"
#include "harness.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

using namespace mobiceal;
using namespace mobiceal::bench;

namespace {

struct FtlScenario {
  double dd_write_kbps = 0;
  double rewrite_kbps = 0;
  double write_amplification = 0;
  std::uint64_t gc_relocations = 0;
  std::uint64_t erases = 0;
  std::uint64_t gc_runs = 0;
  std::uint64_t free_pages = 0;
  std::uint64_t wear_min = 0, wear_max = 0;
  util::Bytes image;  // final logical image
};

/// GC pressure needs cumulative programs to outrun physical capacity: the
/// device is sized to ~4x the workload file and the rewrite passes push
/// (1 + passes) file-images of host writes through it, so the pool of
/// stale copies must be collected well before the run ends.
std::uint64_t gc_device_blocks(std::uint64_t bytes) {
  return std::max<std::uint64_t>(2048, 4 * (bytes / 4096));
}
int gc_rewrite_passes(int reps) { return std::max(4, reps); }

/// dd + repeated rewrites through a MobiCeal stack; `ftl_on` flips only
/// stack.ftl_mode, everything else identical — the parity contrast.
FtlScenario run_scenario(bool ftl_on, std::uint64_t bytes, int reps,
                         const StackOptions& base) {
  StackOptions o = base;
  o.device_blocks = gc_device_blocks(bytes);
  o.stack.ftl_mode = ftl_on ? 1 : 0;
  BenchStack s = make_scheme_stack("mobiceal", /*hidden=*/false, o);

  FtlScenario r;
  r.dd_write_kbps = kbps(bytes, dd_write(s, "/a", bytes));
  // Rewrites are the GC driver: every pass supersedes the file's pages
  // out of place, so the pool fills with stale copies until the collector
  // must reclaim them.
  const int passes = gc_rewrite_passes(reps);
  double rw = 0;
  for (int i = 0; i < passes; ++i) rw += bonnie_rewrite(s, "/a", bytes);
  r.rewrite_kbps = kbps(static_cast<std::uint64_t>(passes) * bytes, rw);

  // Sequential rewrites retire whole erase blocks at once, handing GC
  // fully-stale victims it can erase for free. To make the collector
  // actually COPY, page lifetimes must mix within erase blocks: each hot
  // pass overwrites a pseudo-random half of the file's 8 KiB chunks, so a
  // block programmed in pass p holds pages whose death times scatter
  // across later passes and always has live neighbours when it is chosen.
  const std::size_t hot_req = 8 * 1024;
  util::Bytes hot_buf(hot_req);
  for (int p = 0; p < 4; ++p) {
    util::SplitMix64 gen(0xf7a5'0000 + static_cast<std::uint64_t>(p));
    for (std::uint64_t off = 0; off + hot_req <= bytes; off += hot_req) {
      util::SplitMix64 pick(off * 2654435761u +
                            static_cast<std::uint64_t>(p));
      if ((pick.next_u64() & 1) == 0) continue;
      gen.fill(hot_buf);
      s.fs->write("/a", off, hot_buf);
    }
    s.fs->sync();
  }

  if (ftl_on) {
    const ftl::FtlDevice& flash = *s.ftl_devices.at(0);
    r.write_amplification = flash.stats().write_amplification();
    r.gc_relocations = flash.stats().gc_relocations;
    r.erases = flash.stats().erases;
    r.gc_runs = flash.stats().gc_runs;
    r.free_pages = flash.free_pages();
    const auto& wear = flash.erase_counts();
    r.wear_min = *std::min_element(wear.begin(), wear.end());
    r.wear_max = *std::max_element(wear.begin(), wear.end());
  }
  r.image = s.raw->snapshot();  // FtlLogicalView when ftl_on
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  JsonReport json("ftl", argc, argv);
  const std::uint64_t bytes = env_bench_bytes(4);
  const int reps = env_bench_reps(2);
  StackOptions o;
  o.stack.apply_knobs(argc, argv);

  json.add("workload_mb", static_cast<double>(bytes >> 20));
  json.add("ftl_mode", 1.0);
  json.add("ftl_over_provision_pct",
           static_cast<double>(o.stack.ftl_over_provision_pct));
  json.add("ftl_pages_per_block",
           static_cast<double>(o.stack.ftl_pages_per_block));

  std::printf("== FTL bench: MobiCeal over ftl::FtlDevice (%llu MiB, %d "
              "rewrite passes, virtual time) ==\n\n",
              static_cast<unsigned long long>(bytes >> 20), reps);

  const FtlScenario on = run_scenario(true, bytes, reps, o);
  const FtlScenario off = run_scenario(false, bytes, reps, o);

  std::printf("%-8s %11s %11s %6s %9s %7s %7s %9s\n", "stack", "ddW KB/s",
              "rwW KB/s", "WA", "gc reloc", "erases", "gc runs", "wear");
  std::printf("%-8s %11.0f %11.0f %6s %9s %7s %7s %9s\n", "ftl-off",
              off.dd_write_kbps, off.rewrite_kbps, "-", "-", "-", "-", "-");
  std::printf("%-8s %11.0f %11.0f %6.2f %9llu %7llu %7llu %4llu..%-4llu\n",
              "ftl-on", on.dd_write_kbps, on.rewrite_kbps,
              on.write_amplification,
              static_cast<unsigned long long>(on.gc_relocations),
              static_cast<unsigned long long>(on.erases),
              static_cast<unsigned long long>(on.gc_runs),
              static_cast<unsigned long long>(on.wear_min),
              static_cast<unsigned long long>(on.wear_max));

  json.add("gc.dd_write_kbps", on.dd_write_kbps);
  json.add("gc.rewrite_kbps", on.rewrite_kbps);
  json.add("gc.write_amplification", on.write_amplification);
  json.add("gc.relocations", static_cast<double>(on.gc_relocations));
  json.add("gc.erases", static_cast<double>(on.erases));
  json.add("gc.wear_spread",
           static_cast<double>(on.wear_max - on.wear_min));
  json.add("baseline.dd_write_kbps", off.dd_write_kbps);
  json.add("baseline.rewrite_kbps", off.rewrite_kbps);

  // The out-of-place machinery must never change what the stack reads back.
  const bool parity = on.image == off.image;
  json.add("ftl_parity_adv", parity ? 0.0 : 1.0);
  // GC must actually have been exercised (the scenario is sized for it) and
  // the pool must still be writable afterwards.
  const bool gc_live =
      on.gc_relocations > 0 && on.erases > 0 && on.free_pages > 0;
  json.add("gc.exercised_adv", gc_live ? 0.0 : 1.0);
  std::printf("\nlogical parity ftl-on == ftl-off: %s;  GC exercised: %s "
              "(%llu free pages left)\n", parity ? "yes" : "NO",
              gc_live ? "yes" : "NO",
              static_cast<unsigned long long>(on.free_pages));

  // Raw-flash seizure game. Trials scale with the rep knob so smoke runs
  // (REPS=1 under ASan/TSan) still play every distinguisher end to end.
  std::printf("\n== Raw-flash seizure game (chip imaged between rounds) "
              "==\n");
  adversary::FtlGameConfig gc;
  gc.trials = static_cast<std::uint64_t>(std::max(6, reps * 3));
  gc.seed = 211;
  gc.ftl_over_provision_pct = o.stack.ftl_over_provision_pct;
  double mobiceal_adv = 1.0, pluto_adv = 0.0, flage_adv = 0.0;
  for (const char* scheme : {"mobiceal", "mobipluto", "mobiflage"}) {
    gc.scheme = scheme;
    const adversary::GameResult gr = adversary::run_ftl_game(gc);
    std::printf("%-10s (fresh non-public chunks: hidden %.1f / cover "
                "%.1f)\n", scheme,
                gr.statistic("ftl-unaccounted-programs", true).mean(),
                gr.statistic("ftl-unaccounted-programs", false).mean());
    for (const auto& d : gr.distinguishers) {
      std::printf("  %-28s correct %2llu/%2llu   advantage %.3f\n",
                  d.name.c_str(),
                  static_cast<unsigned long long>(d.correct),
                  static_cast<unsigned long long>(d.trials), d.advantage());
      json.add(std::string(scheme) + "." + d.name + "_adv", d.advantage());
    }
    const double max_adv = gr.max_advantage();
    json.add(std::string(scheme) + ".ftl_game_adv", max_adv);
    // A 0/0 tally reads advantage 0 too: MobiCeal holds only where every
    // distinguisher judged every trial.
    if (gc.scheme == "mobiceal")
      mobiceal_adv = gr.all_applied() ? max_adv : 1.0;
    if (gc.scheme == "mobipluto")
      pluto_adv = gr.distinguisher("ftl-unaccounted-programs").advantage();
    if (gc.scheme == "mobiflage")
      flage_adv = gr.distinguisher("ftl-tail-locality").advantage();
  }
  // Expected-breach canaries, inverted: 0 while the published attack keeps
  // working against the scheme it breaks; 1 (gate failure) if it silently
  // stops — that would mean the FTL or the adversary regressed, not that
  // the baseline scheme got secure.
  json.add("mobipluto.ftl_breach_expected_adv",
           pluto_adv >= 0.3 ? 0.0 : 1.0);
  json.add("mobiflage.ftl_breach_expected_adv",
           flage_adv >= 0.3 ? 0.0 : 1.0);

  std::printf("\n-- shape checks --\n");
  bool ok = parity && gc_live;
  // A handful of trials can't separate advantage 0 from 0.5, so the
  // statistical gates only arm from adversary::kMinArmedTrials (same
  // convention as every game bench) — smoke runs still exercise everything.
  const bool armed = gc.trials >= adversary::kMinArmedTrials;
  const char* unarmed = armed ? "" : " [ungated: too few trials]";
  const bool g_breach = !armed || (pluto_adv >= 0.3 && flage_adv >= 0.3);
  const bool g_hold = !armed || mobiceal_adv <= 0.2;
  std::printf("mobipluto/mobiflage breached (adv >= 0.3): %s (%.3f / "
              "%.3f)%s\n", g_breach ? "yes" : "NO", pluto_adv, flage_adv,
              unarmed);
  std::printf("mobiceal holds (max adv <= 0.2):           %s (%.3f)%s\n",
              g_hold ? "yes" : "NO", mobiceal_adv, unarmed);
  ok = ok && g_breach && g_hold;
  return ok ? 0 : 1;
}
