// Block-cache sweep: cache sizes × write policy × hot/cold re-read and
// metadata-heavy workloads, across every registered scheme.
//
// Each scheme runs the same workload on four stacks:
//   off      no cache (the historical stack — the reference image)
//   wb_hot   writeback,    capacity >= working set (re-reads all hit)
//   wt_hot   writethrough, capacity >= working set
//   wb_cold  writeback,    capacity = working set / 4 (LRU churn +
//            eviction-epoch writeback pressure)
//
// Two claims are enforced (exit nonzero — the CI gate):
//   1. deniability parity: the final device image of every cached run is
//      bit-identical to the uncached run after reboot() (sync + cache
//      flush). Emitted as <scheme>.<cfg>.cache_parity_adv — a security
//      canary (any divergence is a deniability regression, gated
//      absolutely by bench_compare.py).
//   2. speedup: MobiCeal hot re-read with the writeback cache >= 2x the
//      uncached stack (the ISSUE 4 acceptance bar).
//
// Writeback policy is demoted to writethrough per scheme capability
// (DEFY/HIVE), so "wb_*" rows for those schemes measure the writethrough
// cache — the strongest cache their translation layers admit.
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

using namespace mobiceal;
using namespace mobiceal::bench;

namespace {

struct CacheCfg {
  const char* label;
  bool writeback;
  /// Capacity as a fraction of the working set in blocks (x100).
  std::uint32_t percent_of_ws;
};

constexpr CacheCfg kConfigs[] = {
    {"off", true, 0},
    {"wb_hot", true, 200},
    {"wt_hot", false, 200},
    {"wb_cold", true, 25},
};

struct RunResult {
  double write_s = 0, reread_s = 0, meta_s = 0;
  util::Bytes image;
};

util::Bytes small_payload(std::size_t n, std::uint8_t salt) {
  util::Bytes data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::uint8_t>(salt + i * 13);
  }
  return data;
}

RunResult run_workload(const std::string& scheme, std::uint64_t bytes,
                       const StackOptions& base, const CacheCfg& cfg) {
  StackOptions o = base;
  o.seed = 77;
  o.device_blocks = (bytes / 4096) * 6 + 32768;
  o.skip_random_fill = true;
  o.stack.cache_blocks = (bytes / 4096) * cfg.percent_of_ws / 100;
  o.stack.cache_writeback = cfg.writeback;

  BenchStack s = make_scheme_stack(scheme, /*hidden=*/false, o);
  RunResult r;
  r.write_s = dd_write(s, "/hot.dat", bytes);
  (void)dd_read(s, "/hot.dat", bytes);  // first pass fills (or misses)
  r.reread_s = dd_read(s, "/hot.dat", bytes);  // the hot/cold re-read

  // Metadata-heavy pass: small files created once, then re-stat + re-read
  // twice — the paper's app-launch pattern (many small reads of the same
  // blocks) rather than streaming dd.
  const double t0 = s.clock->now_seconds();
  s.fs->mkdir("/meta");
  for (int i = 0; i < 48; ++i) {
    s.fs->write_file("/meta/f" + std::to_string(i),
                     small_payload(8192, static_cast<std::uint8_t>(i)));
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < 48; ++i) {
      const std::string path = "/meta/f" + std::to_string(i);
      (void)s.fs->stat(path);
      (void)s.fs->read_file(path);
    }
    (void)s.fs->list("/meta");
  }
  s.fs->sync();
  r.meta_s = s.clock->now_seconds() - t0;

  s.scheme->reboot();  // sync + cache flush + unmount
  r.image = s.raw->snapshot();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  JsonReport json("cache", argc, argv);
  const std::uint64_t bytes = env_bench_bytes(8);
  StackOptions base;
  base.stack.apply_knobs(argc, argv);
  base.stack.cache_blocks = 0;  // per-config below; --queue-depth applies
  json.add("workload_mb", static_cast<double>(bytes >> 20));
  json.add("queue_depth", static_cast<double>(base.stack.queue_depth));
  json.add("stripes", static_cast<double>(base.stack.stripe_count));
  json.add("crypto_lanes", static_cast<double>(base.stack.crypto_lanes));
  bool ok = true;

  std::printf("== Block-cache sweep (%llu MB working set, QD %u, virtual "
              "time) ==\n\n",
              static_cast<unsigned long long>(bytes >> 20),
              base.stack.queue_depth);
  std::printf("%-14s %-8s %12s %12s %12s %10s %7s\n", "scheme", "cache",
              "write KB/s", "reread KB/s", "meta (s)", "vs off", "state");

  double mc_off_reread = 0, mc_wb_reread = 0;
  for (const std::string& scheme : api::SchemeRegistry::names()) {
    RunResult off;
    for (const CacheCfg& cfg : kConfigs) {
      const RunResult r = run_workload(scheme, bytes, base, cfg);
      const bool first = cfg.percent_of_ws == 0;
      if (first) off = r;
      const bool match = r.image == off.image;
      const double w = kbps(bytes, r.write_s);
      const double rr = kbps(bytes, r.reread_s);
      const double speedup = off.reread_s / r.reread_s;
      std::printf("%-14s %-8s %12.0f %12.0f %12.4f %9.2fx %7s\n",
                  first ? scheme.c_str() : "", cfg.label, w, rr, r.meta_s,
                  speedup, match ? "same" : "DIFFER");
      const std::string key = scheme + "." + cfg.label;
      json.add(key + ".dd_write_kbps", w);
      json.add(key + ".reread_kbps", rr);
      json.add(key + ".meta_s", r.meta_s);
      if (!first) {
        // Security canary: 0 = bit-identical to the uncached image.
        json.add(key + ".cache_parity_adv", match ? 0.0 : 1.0);
        ok = ok && match;
      }
      if (scheme == "mobiceal") {
        if (first) mc_off_reread = rr;
        if (std::string(cfg.label) == "wb_hot") mc_wb_reread = rr;
      }
    }
  }

  const double speedup =
      mc_off_reread > 0 ? mc_wb_reread / mc_off_reread : 0;
  json.add("mobiceal.wb_hot.reread_speedup", speedup);
  std::printf("\n-- shape checks --\n");
  std::printf("MobiCeal hot re-read >= 2x uncached:    %s (%.2fx)\n",
              speedup >= 2.0 ? "yes" : "NO", speedup);
  std::printf("cached state bit-identical everywhere:  %s\n",
              ok ? "yes" : "NO");
  ok = ok && speedup >= 2.0;
  return ok ? 0 : 1;
}
