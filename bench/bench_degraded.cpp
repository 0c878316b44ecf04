// Degraded-operation bench: the MobiCeal stack over a 2-way mirror, driven
// through health states a real device fleet sees — healthy, one member
// down, flaky media (transient read faults + failover), online rebuild
// under foreground I/O, and an SSD+eMMC hybrid mirror — plus the
// rebuild-leak security game (does a spare seized mid-rebuild help the
// multi-snapshot adversary?).
//
// Every scenario executes the SAME filesystem op sequence, so the final
// logical images must be bit-identical across all of them (the *_parity_adv
// canaries): degradation, failover repairs, rebuild copies and member
// timing change when data moves, never what the data is.
//
// Gates (exit nonzero, canaries mirrored by bench_compare.py):
//   * degraded dd read >= 0.4x healthy (scheme-level, sync reads);
//   * raw queued mirror reads: healthy >= 1.5x degraded (round-robin read
//     balancing is worth real throughput) and degraded >= 0.4x healthy;
//   * flaky media: foreground survives with failovers > 0 and no parity
//     loss;
//   * the rebuild completes under foreground load and the promoted spare
//     is bit-identical to the canonical member;
//   * rebuild-leak game: MobiCeal's seized-spare advantage stays ~0 while
//     MobiPluto is caught through the same window.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "adversary/rebuild_game.hpp"
#include "blockdev/block_device.hpp"
#include "blockdev/fault_injector.hpp"
#include "blockdev/timed_device.hpp"
#include "dm/mirror_target.hpp"
#include "harness.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace mobiceal;
using namespace mobiceal::bench;

namespace {

constexpr std::uint64_t kDeviceBlocks = 16384;  // 64 MiB legs
// 2% transient read faults: high for real media, but the flaky scenario
// must fire failovers deterministically even at smoke workloads (2 MiB
// under ASan/TSan), and the mirror's bounded retry absorbs double faults.
constexpr std::uint32_t kFlakyPpm = 20000;
// Blocks copied per MirrorTarget::rebuild_step (the rebuild rate limiter).
constexpr std::uint64_t kRebuildRateBlocks = 256;

enum class Mode { kHealthy, kDegraded, kFlaky, kRebuilding, kHybrid };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kHealthy: return "healthy";
    case Mode::kDegraded: return "degraded";
    case Mode::kFlaky: return "flaky";
    case Mode::kRebuilding: return "rebuilding";
    case Mode::kHybrid: return "hybrid";
  }
  return "?";
}

struct ScenarioResult {
  double dd_write_kbps = 0;
  double dd_read_kbps = 0;
  double fg_write_kbps = 0;  // foreground writes (during rebuild, if any)
  double rebuild_s = 0;      // attach -> promotion, virtual seconds
  std::uint64_t failovers = 0;
  std::uint64_t transient_faults = 0;
  bool spare_ok = true;  // promoted spare == canonical member
  util::Bytes image;     // final logical image (canonical leg)
  util::LatencyHistogram lat_a, lat_b;  // per-tenant 8 KiB read latency
};

/// Deterministic chunk payload for the foreground file — identical in
/// every scenario so the images stay comparable.
util::Bytes fg_chunk(std::size_t n, std::uint64_t salt) {
  util::Bytes out(n);
  util::SplitMix64 gen(salt ^ 0xde61'5747'b10cULL);
  gen.fill(out);
  return out;
}

ScenarioResult run_scenario(Mode mode, std::uint64_t bytes,
                            const StackOptions& base) {
  StackOptions o = base;
  o.device_blocks = kDeviceBlocks;
  o.mirror_legs = 2;
  if (mode == Mode::kDegraded) o.fault_drop_member = 2;
  if (mode == Mode::kFlaky) o.fault_read_ppm = kFlakyPpm;
  if (mode == Mode::kHybrid) {
    o.mirror_leg_models = {blockdev::TimingModel::sata_ssd(),
                           o.device_model};
  }
  BenchStack s = make_scheme_stack("mobiceal", /*hidden=*/false, o);
  dm::MirrorTarget& mirror = *s.mirrors.at(0);

  ScenarioResult r;
  // Phase A: plain dd on the (healthy or already-degraded) array.
  r.dd_write_kbps = kbps(bytes, dd_write(s, "/a", bytes));
  r.dd_read_kbps = kbps(bytes, dd_read(s, "/a", bytes));

  // Rebuild setup: leg 2 dies mid-life through its injector (the mirror
  // discovers it on the next I/O), a timed spare is attached.
  std::shared_ptr<blockdev::MemBlockDevice> spare_raw;
  double rebuild_t0 = 0;
  if (mode == Mode::kRebuilding) {
    s.mirror_injectors.at(0).at(1)->drop_now();
    spare_raw = std::make_shared<blockdev::MemBlockDevice>(o.device_blocks);
    auto spare = std::make_shared<blockdev::TimedDevice>(
        spare_raw, o.device_model, s.clock);
    spare->set_queue_depth(o.stack.queue_depth);
    mirror.attach_spare(std::move(spare));
    rebuild_t0 = s.clock->now_seconds();
  }
  auto step_rebuild = [&] {
    if (mode == Mode::kRebuilding && mirror.rebuilding()) {
      mirror.rebuild_step(kRebuildRateBlocks);
    }
  };

  // Phase B: foreground writes, rebuild copy interleaving between chunks.
  const std::size_t chunk = 64 * 1024;
  if (!s.fs->exists("/b")) s.fs->create("/b");
  const double wb0 = s.clock->now_seconds();
  for (std::uint64_t off = 0; off < bytes; off += chunk) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(chunk, bytes - off));
    s.fs->write("/b", off, fg_chunk(n, off));
    step_rebuild();
  }
  s.fs->sync();
  r.fg_write_kbps = kbps(bytes, s.clock->now_seconds() - wb0);

  // Phase C: two tenants take turns reading 8 KiB — per-tenant latency
  // (the rebuild, if one is running, keeps copying underneath).
  const std::size_t req = 8 * 1024;
  for (std::uint64_t off = 0; off + req <= bytes; off += req) {
    double t0 = s.clock->now_seconds();
    s.fs->read("/a", off, req);
    r.lat_a.record(static_cast<std::uint64_t>(
        (s.clock->now_seconds() - t0) * 1e9));
    t0 = s.clock->now_seconds();
    s.fs->read("/b", off, req);
    r.lat_b.record(static_cast<std::uint64_t>(
        (s.clock->now_seconds() - t0) * 1e9));
    step_rebuild();
  }

  // Whatever copy work the foreground window didn't absorb finishes now;
  // promotion drains the spare's timeline.
  if (mode == Mode::kRebuilding) {
    while (mirror.rebuilding()) {
      mirror.rebuild_step(kRebuildRateBlocks);
    }
    r.rebuild_s = s.clock->now_seconds() - rebuild_t0;
    r.spare_ok = mirror.rebuilds_completed() == 1 &&
                 spare_raw->snapshot() == s.raw->snapshot();
  }

  r.failovers = mirror.failovers();
  for (const auto& inj : s.mirror_injectors.at(0)) {
    r.transient_faults += inj->transient_faults();
  }
  r.image = s.raw->snapshot();
  return r;
}

/// Raw mirror read throughput under queueing: a chained window of 64 KiB
/// reads straight at the mirror, sized so the per-leg queue depth (4) is
/// the binding constraint, not the submission window (16) — round-robin
/// balancing then doubles the effective slot count, which the scheme-level
/// dd reads above (synchronous, one in flight) cannot show.
double raw_qd_read_kbps(bool degraded, const StackOptions& o) {
  constexpr std::uint64_t kBlocks = 4096;
  constexpr std::uint64_t kReqBlocks = 16;  // 64 KiB
  constexpr std::uint64_t kRounds = 1024;
  constexpr std::uint32_t kWindow = 16;
  constexpr std::uint32_t kLegDepth = 4;

  auto clock = std::make_shared<util::SimClock>();
  std::vector<std::shared_ptr<blockdev::BlockDevice>> legs;
  for (int l = 0; l < 2; ++l) {
    auto mem = std::make_shared<blockdev::MemBlockDevice>(kBlocks);
    auto td = std::make_shared<blockdev::TimedDevice>(mem, o.device_model,
                                                      clock);
    td->set_queue_depth(kLegDepth);
    legs.push_back(std::move(td));
  }
  auto mirror = std::make_shared<dm::MirrorTarget>(legs);
  if (degraded) mirror->fail_member(1);

  util::Bytes buf(kReqBlocks * mirror->block_size());
  util::SplitMix64 gen(0x5eed);
  gen.fill(buf);
  for (std::uint64_t first = 0; first < kBlocks; first += kReqBlocks) {
    mirror->write_blocks(first, buf);
  }
  mirror->drain();

  const double t0 = clock->now_seconds();
  std::array<std::uint64_t, kWindow> last{};
  double end = t0;
  for (std::uint64_t i = 0; i < kRounds; ++i) {
    blockdev::IoRequest req;
    req.op = blockdev::IoOp::kRead;
    req.first = (i * kReqBlocks) % kBlocks;
    req.count = kReqBlocks;
    req.read_buf = buf;
    std::uint64_t& slot = last[i % kWindow];
    req.available_ns = slot;
    slot = mirror->submit(req).complete_ns;
    end = std::max(end, static_cast<double>(slot) * 1e-9);
  }
  mirror->drain();
  return kbps(kRounds * kReqBlocks * mirror->block_size(), end - t0);
}

}  // namespace

int main(int argc, char** argv) {
  JsonReport json("degraded", argc, argv);
  const std::uint64_t bytes = env_bench_bytes(4);
  StackOptions o;
  o.stack.apply_knobs(argc, argv);

  json.add("workload_mb", static_cast<double>(bytes >> 20));
  json.add("mirror_legs", 2);
  json.add("fault_read_ppm", kFlakyPpm);
  json.add("fault_drop_member", 2);
  json.add("rebuild_rate_blocks", kRebuildRateBlocks);

  std::printf("== Degraded / rebuild bench: MobiCeal over a 2-way mirror "
              "(%llu MiB foreground, virtual time) ==\n\n",
              static_cast<unsigned long long>(bytes >> 20));
  std::printf("%-11s %11s %11s %11s %9s %9s %10s %6s\n", "scenario",
              "ddW KB/s", "ddR KB/s", "fgW KB/s", "p99A us", "p99B us",
              "rebuild s", "state");

  constexpr Mode kModes[] = {Mode::kHealthy, Mode::kDegraded, Mode::kFlaky,
                             Mode::kRebuilding, Mode::kHybrid};
  ScenarioResult healthy;
  bool ok = true;
  double degraded_read = 0;
  for (const Mode mode : kModes) {
    ScenarioResult r = run_scenario(mode, bytes, o);
    const bool parity = mode == Mode::kHealthy || r.image == healthy.image;
    const bool state_ok = parity && r.spare_ok;
    std::printf("%-11s %11.0f %11.0f %11.0f %9.1f %9.1f %10.3f %6s\n",
                mode_name(mode), r.dd_write_kbps, r.dd_read_kbps,
                r.fg_write_kbps,
                static_cast<double>(r.lat_a.percentile_ns(0.99)) * 1e-3,
                static_cast<double>(r.lat_b.percentile_ns(0.99)) * 1e-3,
                r.rebuild_s, state_ok ? "ok" : "BAD");

    const std::string key = mode_name(mode);
    json.add(key + ".dd_write_kbps", r.dd_write_kbps);
    json.add(key + ".dd_read_kbps", r.dd_read_kbps);
    json.add(key + ".fg_write_kbps", r.fg_write_kbps);
    json.add(key + ".tenantA_p99_ns",
             static_cast<double>(r.lat_a.percentile_ns(0.99)));
    json.add(key + ".tenantB_p99_ns",
             static_cast<double>(r.lat_b.percentile_ns(0.99)));
    if (mode != Mode::kHealthy) {
      // Identical op sequences must leave identical logical images no
      // matter the array's health — the degradation-transparency canary.
      json.add(key + ".parity_adv", parity ? 0.0 : 1.0);
    }
    switch (mode) {
      case Mode::kHealthy:
        healthy = std::move(r);
        break;
      case Mode::kDegraded:
        degraded_read = r.dd_read_kbps;
        break;
      case Mode::kFlaky:
        json.add("flaky.failovers", static_cast<double>(r.failovers));
        json.add("flaky.transient_faults",
                 static_cast<double>(r.transient_faults));
        // Failover must actually have exercised (the injector fired) and
        // absorbed every fault (parity gate above).
        json.add("flaky.failover_exercised_adv",
                 r.failovers > 0 && r.transient_faults > 0 ? 0.0 : 1.0);
        ok = ok && r.failovers > 0 && r.transient_faults > 0;
        break;
      case Mode::kRebuilding:
        json.add("rebuild.virtual_s", r.rebuild_s);
        json.add("rebuild.spare_parity_adv", r.spare_ok ? 0.0 : 1.0);
        ok = ok && r.spare_ok;
        break;
      case Mode::kHybrid:
        break;
    }
    ok = ok && state_ok;
  }

  // Raw queued mirror reads: the round-robin balancing contrast.
  const double raw_healthy = raw_qd_read_kbps(false, o);
  const double raw_degraded = raw_qd_read_kbps(true, o);
  json.add("raw_qd.healthy_read_kbps", raw_healthy);
  json.add("raw_qd.degraded_read_kbps", raw_degraded);
  std::printf("\nraw queued mirror reads: healthy %.0f KB/s, degraded %.0f "
              "KB/s (%.2fx)\n", raw_healthy, raw_degraded,
              raw_degraded > 0 ? raw_healthy / raw_degraded : 0.0);

  // Rebuild-leak security game: MobiCeal vs MobiPluto through the seized
  // half-rebuilt spare; Mobiflage exercises the no-thin-metadata fallback.
  // Every trial's rebuild must complete with a bit-identical promoted spare
  // (the game throws otherwise).
  adversary::RebuildGameConfig gc;
  gc.trials = static_cast<std::uint64_t>(env_bench_reps(10));
  gc.seed = 97;
  std::printf("\n== Rebuild-leak game (spare seized once the rebuild "
              "passes %u%%) ==\n", gc.seize_permille / 10);
  double mobiceal_leak = 1.0, mobipluto_leak = 0.0;
  for (const char* scheme : {"mobiceal", "mobipluto", "mobiflage"}) {
    gc.scheme = scheme;
    const adversary::GameResult gr = adversary::run_rebuild_leak_game(gc);
    std::printf("%s\n", scheme);
    for (const auto& d : gr.distinguishers) {
      std::printf("  %-36s correct %2llu/%2llu   advantage %.3f\n",
                  d.name.c_str(),
                  static_cast<unsigned long long>(d.correct),
                  static_cast<unsigned long long>(d.trials), d.advantage());
      json.add(std::string(scheme) + "." + d.name + "_adv", d.advantage());
    }
    // The committed canary: the strongest distinguisher the seized spare
    // enables against this scheme.
    const double leak = gr.max_advantage();
    json.add(std::string(scheme) + ".rebuild_leak_adv", leak);
    // A 0/0 tally reads advantage 0 too: MobiCeal holds only where every
    // distinguisher judged every trial.
    if (gc.scheme == "mobiceal") mobiceal_leak = gr.all_applied() ? leak : 1.0;
    if (gc.scheme == "mobipluto") mobipluto_leak = leak;
  }

  std::printf("\n-- shape checks --\n");
  const bool g_dd = degraded_read >= 0.4 * healthy.dd_read_kbps;
  std::printf("degraded dd read >= 0.4x healthy:        %s (%.2fx)\n",
              g_dd ? "yes" : "NO",
              healthy.dd_read_kbps > 0
                  ? degraded_read / healthy.dd_read_kbps : 0.0);
  const bool g_raw = raw_healthy >= 1.5 * raw_degraded &&
                     raw_degraded >= 0.4 * raw_healthy;
  std::printf("raw queued: healthy >= 1.5x degraded >= 0.4x: %s\n",
              g_raw ? "yes" : "NO");
  // A handful of trials can't separate advantage 0 from 0.5 (one coin flip
  // is ±0.5 by construction), so the statistical gate only arms from
  // adversary::kMinArmedTrials — smoke runs (MOBICEAL_BENCH_REPS=1 under
  // ASan/TSan) still exercise the whole game, parity invariants included.
  const bool armed = gc.trials >= adversary::kMinArmedTrials;
  const bool g_leak =
      !armed || (mobiceal_leak <= 0.2 && mobipluto_leak >= 0.3);
  std::printf("rebuild leak: mobiceal <= 0.2, mobipluto >= 0.3: %s "
              "(%.3f / %.3f)%s\n", g_leak ? "yes" : "NO", mobiceal_leak,
              mobipluto_leak, armed ? "" : " [ungated: too few trials]");
  ok = ok && g_dd && g_raw && g_leak;
  return ok ? 0 : 1;
}
