// Shared benchmark harness: builds the Fig. 4 / Table I storage stacks over
// a virtual-clock device and provides the dd / Bonnie++-style workloads the
// paper measures with.
//
// Scheme-backed stacks are constructed through api::SchemeRegistry — the
// harness names backends ("mobiceal", "mobipluto", ...), never concrete
// types. The one bespoke stack is plain ext4 over the same backing store,
// Table I's unencrypted baseline.
//
// Every number reported by the bench binaries is *virtual* time from the
// calibrated device/CPU service models — deterministic across machines.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/scheme_registry.hpp"
#include "api/stack_config.hpp"
#include "blockdev/fault_injector.hpp"
#include "blockdev/timed_device.hpp"
#include "dm/mirror_target.hpp"
#include "fs/ext_fs.hpp"
#include "ftl/ftl_device.hpp"
#include "util/clock_domain.hpp"
#include "util/stats.hpp"

namespace mobiceal::bench {

/// A fully built storage stack with a mounted filesystem and shared clock.
/// Keepalives hold every layer; `fs` is the mount point for workloads.
struct BenchStack {
  std::shared_ptr<util::SimClock> clock;
  /// Sharded virtual-clock domain (stack.clock_shards > 1 with striping);
  /// null for single-timeline stacks. `clock` is shard 0 either way.
  std::shared_ptr<util::ClockDomain> domain;
  fs::FileSystem* fs = nullptr;

  // Keepalive owners. `raw` is the untimed logical image of the backing
  // store: the memory device itself for single-device stacks, or an
  // untimed dm::StripedTarget view over `stripe_raw` when striping is on —
  // raw->snapshot() is the bit-exact final image either way, so parity
  // checks need not care about the layout.
  std::shared_ptr<blockdev::BlockDevice> raw;
  std::shared_ptr<blockdev::BlockDevice> timed;  // single-device stacks only
  std::vector<std::shared_ptr<blockdev::BlockDevice>> stripe_raw;
  std::vector<std::shared_ptr<blockdev::BlockDevice>> stripe_timed;
  std::unique_ptr<api::PdeScheme> scheme;  // scheme-backed stacks
  std::unique_ptr<fs::FileSystem> owned_fs;  // make_raw_ext_stack only

  // Mirror layer (mirror_legs > 1): one dm::MirrorTarget per backing
  // position (1 unstriped, stripe_count striped) with per-leg handles for
  // the degraded/rebuild benches' control plane — mirror_leg_raw[pos][leg]
  // is the untimed leg image, mirror_injectors[pos][leg] the fault policy
  // on that leg. `raw`/`stripe_raw` view leg 0, the canonical logical
  // image (which is why fault_drop_member never drops leg 1).
  std::vector<std::shared_ptr<dm::MirrorTarget>> mirrors;
  std::vector<std::vector<std::shared_ptr<blockdev::BlockDevice>>>
      mirror_leg_raw;
  std::vector<std::vector<std::shared_ptr<blockdev::FaultInjector>>>
      mirror_injectors;

  // FTL layer (stack.ftl_mode != 0): one ftl::FtlDevice per backing
  // position (per leg when mirrored), replacing the Mem+TimedDevice pair —
  // the flash timing model charges the clock instead of the block-level
  // TimingModel, and `raw`/`stripe_raw`/`mirror_leg_raw` become untimed
  // ftl::FtlLogicalView handles so every parity/snapshot path keeps seeing
  // the logical image. snapshot_raw_flash() on these is the raw-flash
  // adversary's hook.
  std::vector<std::shared_ptr<ftl::FtlDevice>> ftl_devices;
};

struct StackOptions {
  std::uint64_t device_blocks = 65536;  // 256 MiB
  blockdev::TimingModel device_model = blockdev::TimingModel::nexus4_emmc();
  std::uint64_t seed = 1;
  /// MobiCeal dummy-write parameters (ablations override these).
  double lambda = 1.0;
  std::uint32_t x = 50;
  /// Allocation policy override for the MobiCeal stacks (ablations).
  bool mobiceal_random_alloc = true;
  /// Skip the one-time full random fill (the thin stacks always skip it —
  /// it is irrelevant to steady-state throughput).
  bool skip_random_fill = false;
  /// Mirror legs (dm::MirrorTarget) under each backing position, each leg
  /// independently timed and behind its own blockdev::FaultInjector. 1
  /// (the default) builds no mirror layer at all. Only bench_degraded
  /// sets these four.
  std::uint32_t mirror_legs = 1;
  /// Transient read-fault probability per request on every mirror leg,
  /// parts per million.
  std::uint32_t fault_read_ppm = 0;
  /// Drops one mirror leg dead at build time: 0 drops nothing, k >= 2
  /// drops leg k (1-based) of every mirror. Leg 1 is the canonical
  /// logical image and cannot be dropped.
  std::uint32_t fault_drop_member = 0;
  /// Per-mirror-leg TimingModel overrides (the SSD+eMMC hybrid scenario):
  /// leg l of every mirror uses mirror_leg_models[l % size]. Empty (the
  /// default): every leg uses device_model.
  std::vector<blockdev::TimingModel> mirror_leg_models;
  /// Every stack tuning knob (queue depth, cache, striping, crypto lanes,
  /// clock shards, flusher) in one typed struct — see api/stack_config.hpp.
  /// Benches never parse knobs themselves: they call
  /// o.stack.apply_knobs(argc, argv) once.
  /// All defaults keep the historical single-device, single-timeline stack
  /// byte- and time-identical, so committed baselines stay comparable.
  /// With stack.stripe_count > 1, device_blocks must divide into
  /// stripe_count stripes of whole stripe_chunk_blocks chunks; with
  /// stack.clock_shards > 1 on top, the harness builds a util::ClockDomain
  /// and pins stripe i's device to shard i % shards.
  api::StackConfig stack;
};

/// Builds a freshly initialised, unlocked stack for a registered scheme.
/// `hidden` unlocks the hidden volume (requires kHiddenVolume).
BenchStack make_scheme_stack(const std::string& scheme_name, bool hidden,
                             const StackOptions& options);

/// Builds plain ext4 with no encryption over the same backing store
/// (Table I's baseline).
BenchStack make_raw_ext_stack(const StackOptions& options);

// ---- workloads ------------------------------------------------------------------

/// dd-style sequential write: streams `bytes` into a fresh file in
/// `chunk_bytes` requests, then fdatasync (paper: dd ... conv=fdatasync).
/// Returns virtual seconds elapsed.
double dd_write(BenchStack& stack, const std::string& path,
                std::uint64_t bytes, std::size_t chunk_bytes = 1 << 20);

/// dd-style sequential read of the whole file (caches dropped: the FS has
/// no data cache, matching the paper's `echo 3 > drop_caches`).
double dd_read(BenchStack& stack, const std::string& path,
               std::uint64_t bytes, std::size_t chunk_bytes = 1 << 20);

/// Bonnie++-style block write / block read passes (8 KiB requests).
double bonnie_write(BenchStack& stack, const std::string& path,
                    std::uint64_t bytes);
double bonnie_read(BenchStack& stack, const std::string& path,
                   std::uint64_t bytes);
/// Bonnie++ rewrite pass: read + modify + write back, 8 KiB at a time.
double bonnie_rewrite(BenchStack& stack, const std::string& path,
                      std::uint64_t bytes);

/// KB/s for `bytes` moved in `seconds`.
inline double kbps(std::uint64_t bytes, double seconds) {
  return static_cast<double>(bytes) / 1024.0 / seconds;
}

/// Reads environment overrides for workload size/repetitions:
/// MOBICEAL_BENCH_MB (default `def_mb`), MOBICEAL_BENCH_REPS (default
/// `def_reps`). Lets CI run quick passes and full runs match the paper.
std::uint64_t env_bench_bytes(std::uint64_t def_mb);
int env_bench_reps(int def_reps);

// ---- machine-readable output ------------------------------------------------
//
// Every bench binary emits BENCH_<name>.json alongside its human-readable
// table when asked to: `--json <path>` (or `--json=<path>`) writes to the
// given file; otherwise MOBICEAL_BENCH_JSON=<dir> writes <dir>/BENCH_<name>.
// json. tools/bench_compare.py diffs two such files and gates CI on >10%
// virtual-time regressions. Metric-name suffixes carry the direction:
// `_kbps`/`_mbps` higher-is-better, `_s`/`_ns` lower-is-better; any other
// suffix (ratios, advantages, counts) is recorded for trajectory but not
// gated — derived ratios would double-gate their already-gated inputs.
class JsonReport {
 public:
  /// `bench_name` without the BENCH_ prefix ("fig4_throughput"). Parses
  /// --json from argv (removing nothing; benches have no other flags) and
  /// falls back to the MOBICEAL_BENCH_JSON directory.
  JsonReport(std::string bench_name, int argc, char** argv);

  /// Destructor writes the file when a path was configured.
  ~JsonReport();

  /// Records one metric. Keys repeat per config as "<config>.<metric>",
  /// e.g. "MC-P.dd_write_kbps".
  void add(const std::string& metric, double value);

  bool enabled() const noexcept { return !path_.empty(); }
  const std::string& path() const noexcept { return path_; }

 private:
  std::string bench_;
  std::string path_;
  std::vector<std::pair<std::string, double>> metrics_;
};

}  // namespace mobiceal::bench
