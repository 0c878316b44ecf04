// Background-flusher bench: writeback cache with and without the
// deadline/dirty-ratio flusher thread (cache::FlusherPolicy), under
// sustained dirtying traffic at queue depth.
//
// The flusher writes back on its own worker thread via timed segment
// submission (no drain barrier), so its device time overlaps the
// foreground requests issued after the hand-off join. Two claims are
// enforced (exit nonzero — the CI gate):
//   1. deniability parity: the final device image with the flusher on is
//      bit-identical to the flusher-off run after reboot(). Emitted as
//      <scheme>.fl.flusher_parity_adv — a security canary, gated
//      absolutely by bench_compare.py.
//   2. liveness: the flusher-on run is never catastrophically slower
//      (>= 0.5x the off run) — a deadlocked or thrashing worker fails
//      loudly here rather than only in wall-clock CI time.
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

using namespace mobiceal;
using namespace mobiceal::bench;

namespace {

struct Run {
  double write_s = 0, rewrite_s = 0;
  util::Bytes image;
};

Run run_workload(const std::string& scheme, std::uint64_t bytes,
                 const StackOptions& base, bool flusher) {
  StackOptions o = base;
  o.seed = 53;
  o.device_blocks = (bytes / 4096) * 6 + 32768;
  o.skip_random_fill = true;
  // Cold cache (quarter of the working set) keeps eviction and writeback
  // pressure on; the flusher's ratio trigger fires well before capacity.
  o.stack.cache_blocks = (bytes / 4096) / 4;
  o.stack.cache_writeback = true;
  o.stack.flusher.enabled = flusher;
  BenchStack s = make_scheme_stack(scheme, /*hidden=*/false, o);
  Run r;
  r.write_s = dd_write(s, "/fl.dat", bytes);
  // Rewrite pass: read-modify-write re-dirties resident blocks, the
  // pattern where background writeback (not just eviction epochs) earns
  // its keep.
  r.rewrite_s = bonnie_rewrite(s, "/fl.dat", bytes);
  s.scheme->reboot();  // sync + cache flush + unmount
  r.image = s.raw->snapshot();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  JsonReport json("flusher", argc, argv);
  const std::uint64_t bytes = env_bench_bytes(8);
  StackOptions base;
  base.stack.queue_depth = 8;  // overlap needs an async queue; knob wins
  base.stack.apply_knobs(argc, argv);
  json.add("workload_mb", static_cast<double>(bytes >> 20));
  json.add("queue_depth", static_cast<double>(base.stack.queue_depth));
  json.add("flusher_dirty_pct",
           static_cast<double>(base.stack.flusher.dirty_ratio_pct));
  bool ok = true;

  std::printf("== Background-flusher sweep (%llu MB, QD %u, virtual time) "
              "==\n\n",
              static_cast<unsigned long long>(bytes >> 20),
              base.stack.queue_depth);
  std::printf("%-14s %-4s %14s %14s %7s\n", "scheme", "fl",
              "write KB/s", "rewrite KB/s", "state");

  for (const std::string& scheme :
       {std::string("mobiceal"), std::string("android_fde")}) {
    const Run off = run_workload(scheme, bytes, base, /*flusher=*/false);
    const Run on = run_workload(scheme, bytes, base, /*flusher=*/true);
    const bool match = on.image == off.image;
    for (const bool fl : {false, true}) {
      const Run& r = fl ? on : off;
      std::printf("%-14s %-4s %14.0f %14.0f %7s\n",
                  fl ? "" : scheme.c_str(), fl ? "on" : "off",
                  kbps(bytes, r.write_s), kbps(bytes, r.rewrite_s),
                  fl ? (match ? "same" : "DIFFER") : "-");
      const std::string key = scheme + (fl ? ".fl" : ".off");
      json.add(key + ".dd_write_kbps", kbps(bytes, r.write_s));
      json.add(key + ".rewrite_kbps", kbps(bytes, r.rewrite_s));
    }
    // Security canary: 0 = bit-identical to the flusher-off image.
    json.add(scheme + ".fl.flusher_parity_adv", match ? 0.0 : 1.0);
    ok = ok && match;
    const double ratio =
        on.rewrite_s > 0 ? off.rewrite_s / on.rewrite_s : 0;
    json.add(scheme + ".fl.rewrite_speedup", ratio);
    ok = ok && ratio >= 0.5;
  }

  std::printf("\n-- shape checks --\n");
  std::printf("flusher image bit-identical + no collapse:  %s\n",
              ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
