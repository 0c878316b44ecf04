// Ablation A — dummy-write parameters (Sec. IV-B design questions 1-2):
// sweep the rate parameter lambda and the trigger modulus x, and measure
//   * write-throughput overhead vs the same stack without dummy writes,
//   * dummy traffic volume (chunks per public allocation),
//   * deniability headroom: how many hidden chunks per public allocation
//     stay under the adversary's dummy-budget threshold.
//
// This quantifies the trade-off the paper fixes by choosing x = 50 and the
// paper-example lambda = 1.0.
#include <cstdio>

#include "adversary/attacks.hpp"
#include "core/mobiceal.hpp"
#include "harness.hpp"

using namespace mobiceal;
using namespace mobiceal::bench;

namespace {

// This ablation inspects MobiCeal's DummyWriteEngine counters — internals
// the PdeScheme API deliberately does not expose — so it builds the
// concrete device the way make_scheme_stack("mobiceal", ...) does.
struct MobiCealStack {
  BenchStack bench;  // clock/raw/timed keepalives + fs pointer
  std::unique_ptr<core::MobiCealDevice> dev;
};

MobiCealStack make_mobiceal_stack(const StackOptions& o) {
  MobiCealStack s;
  s.bench.clock = std::make_shared<util::SimClock>();
  s.bench.raw = std::make_shared<blockdev::MemBlockDevice>(o.device_blocks);
  s.bench.timed = std::make_shared<blockdev::TimedDevice>(
      s.bench.raw, o.device_model, s.bench.clock);

  core::MobiCealDevice::Config cfg;
  cfg.num_volumes = 8;
  cfg.chunk_blocks = 16;
  cfg.kdf_iterations = 2000;
  cfg.fs_inode_count = 1024;
  cfg.rng_seed = o.seed;
  cfg.dummy.lambda = o.lambda;
  cfg.dummy.x = o.x;
  s.dev = core::MobiCealDevice::initialize(s.bench.timed, cfg,
                                           "bench-public", {"bench-hidden"},
                                           s.bench.clock);
  s.dev->boot("bench-public");
  s.bench.fs = &s.dev->data_fs();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  JsonReport json("ablation_dummy", argc, argv);
  const std::uint64_t bytes = env_bench_bytes(24);
  json.add("workload_mb", static_cast<double>(bytes >> 20));
  const int reps = env_bench_reps(2);

  // Baseline: thin + FDE without dummy writes (A-T-P).
  double base_kbps = 0;
  {
    util::RunningStats s;
    for (int rep = 0; rep < reps; ++rep) {
      StackOptions o;
      o.seed = 4000 + rep;
      o.device_blocks = (bytes / 4096) * 4 + 32768;
      BenchStack stack = make_stack(StackKind::kThinPublic, o);
      s.add(kbps(bytes, dd_write(stack, "/f.dat", bytes)));
    }
    base_kbps = s.mean();
  }

  std::printf("== Ablation: dummy-write parameters (dd-write, %llu MB, %d "
              "reps; baseline A-T-P = %.0f KB/s) ==\n\n",
              static_cast<unsigned long long>(bytes >> 20), reps, base_kbps);
  std::printf("%6s %6s %12s %10s %16s %18s\n", "lambda", "x", "write KB/s",
              "overhead", "dummy chunks/alloc", "budget headroom/alloc");

  for (double lambda : {0.5, 1.0, 2.0, 4.0}) {
    for (std::uint32_t x : {10u, 50u, 100u}) {
      util::RunningStats tput, rate;
      for (int rep = 0; rep < reps; ++rep) {
        StackOptions o;
        o.seed = 5000 + rep;
        o.lambda = lambda;
        o.x = x;
        o.device_blocks = (bytes / 4096) * 6 + 32768;
        MobiCealStack stack = make_mobiceal_stack(o);
        tput.add(kbps(bytes, dd_write(stack.bench, "/f.dat", bytes)));
        const auto& st = stack.dev->dummy_engine().stats();
        rate.add(st.public_allocations
                     ? static_cast<double>(st.chunks_written) /
                           static_cast<double>(st.public_allocations)
                     : 0.0);
      }
      const double overhead = 100.0 * (1.0 - tput.mean() / base_kbps);
      // Adversary budget per public allocation: 0.5 * E[m] (+slack, which
      // amortises out for large N) — headroom is what a hidden volume can
      // consume without exceeding it.
      const double budget = 0.5 / lambda;
      const double headroom = budget - rate.mean();
      std::printf("%6.1f %6u %12.0f %9.1f%% %18.3f %18.3f\n", lambda, x,
                  tput.mean(), overhead, rate.mean(), headroom);
      char key[64];
      std::snprintf(key, sizeof key, "lambda%.1f_x%u", lambda, x);
      json.add(std::string(key) + ".write_kbps", tput.mean());
      json.add(std::string(key) + ".overhead_pct", overhead);
    }
  }

  std::printf("\nReading: higher lambda -> less dummy traffic -> lower "
              "overhead but thinner deniability headroom; x shifts the "
              "average trigger probability ((x-1)/4x -> ~25%%).\n");
  return 0;
}
