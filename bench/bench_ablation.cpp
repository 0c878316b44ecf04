// Ablations of the paper's design questions, one table-driven bench:
//
//   dummy        Sec. IV-B questions 1-2: sweep the dummy-write rate
//                parameter lambda and the trigger modulus x, and measure the
//                write overhead against thin + FDE without dummy writes,
//                the dummy traffic per public allocation, and the
//                deniability headroom (hidden chunks per public allocation
//                that stay under the adversary's dummy budget).
//   alloc        Sec. IV-B "Block Allocation Strategy": random vs
//                sequential allocation. Sequential allocation betrays a
//                large hidden file as one long run of non-public chunks
//                wedged between public writes, beyond any plausible dummy
//                burst; random allocation pays some throughput for cover.
//   gc           Sec. IV-D "Reclaiming Space Occupied by Dummy Writes":
//                usage/GC cycles at several minimum reclaim fractions —
//                occupancy before/after, the share of dummy chunks that
//                survives (the remaining cover) and hidden-data integrity.
//   hidden_size  Sec. IV-B user discipline: hidden/public volume ratio vs
//                the advantage of the paper's budget adversary and the
//                mean-rate threshold.
//
// Each ablation prints its table, records its metrics as
// "<ablation>.<key>" in BENCH_ablation.json and returns whether its shape
// checks hold; the bench exits nonzero when an armed check fails.
#include <algorithm>
#include <cstdio>
#include <string>

#include "adversary/metadata_reader.hpp"
#include "adversary/security_game.hpp"
#include "core/mobiceal.hpp"
#include "harness.hpp"
#include "util/error.hpp"

using namespace mobiceal;
using namespace mobiceal::bench;

namespace {

constexpr char kPub[] = "bench-public";
constexpr char kHid[] = "bench-hidden";
// DummyWriteEngine's burst bound, in chunks.
constexpr std::uint64_t kBurstCap = 64;

/// A locked core::MobiCealDevice over one timed device. The dummy and GC
/// ablations read its internals (DummyWriteEngine counters, per-volume
/// pool occupancy), which the PdeScheme API does not expose. `cfg` gives
/// the geometry; seed, lambda and x come from `o`.
struct MobiCealStack {
  BenchStack bench;  // clock/raw/timed keepalives; fs set once booted
  std::unique_ptr<core::MobiCealDevice> dev;
};

MobiCealStack make_mobiceal(const StackOptions& o,
                            core::MobiCealDevice::Config cfg) {
  MobiCealStack s;
  s.bench.clock = std::make_shared<util::SimClock>();
  s.bench.raw = std::make_shared<blockdev::MemBlockDevice>(o.device_blocks);
  s.bench.timed = std::make_shared<blockdev::TimedDevice>(
      s.bench.raw, o.device_model, s.bench.clock);
  cfg.rng_seed = o.seed;
  cfg.dummy.lambda = o.lambda;
  cfg.dummy.x = o.x;
  s.dev = core::MobiCealDevice::initialize(s.bench.timed, cfg, kPub, {kHid},
                                           s.bench.clock);
  return s;
}

util::Bytes payload(std::size_t n, std::uint8_t seed) {
  util::Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + i);
  }
  return out;
}

// ---- dummy-write parameters ---------------------------------------------------

bool ablate_dummy(JsonReport& json, std::uint64_t bytes) {
  const int reps = env_bench_reps(2);
  // Baseline: thin + FDE on a stock kernel without dummy writes (A-T-P,
  // MobiPluto's stack minus the random fill).
  util::RunningStats base;
  for (int rep = 0; rep < reps; ++rep) {
    StackOptions o;
    o.seed = 4000 + rep;
    o.device_blocks = (bytes / 4096) * 4 + 32768;
    o.skip_random_fill = true;
    BenchStack stack = make_scheme_stack("mobipluto", /*hidden=*/false, o);
    base.add(kbps(bytes, dd_write(stack, "/f.dat", bytes)));
  }
  const double base_kbps = base.mean();
  json.add("dummy.thin_baseline.write_kbps", base_kbps);

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
        MobiCealStack s = make_mobiceal(o, {});
        s.dev->boot(kPub);
        s.bench.fs = &s.dev->data_fs();
        tput.add(kbps(bytes, dd_write(s.bench, "/f.dat", bytes)));
        const auto& st = s.dev->dummy_engine().stats();
        rate.add(st.public_allocations
                     ? static_cast<double>(st.chunks_written) /
                           static_cast<double>(st.public_allocations)
                     : 0.0);
      }
      const double overhead = 100.0 * (1.0 - tput.mean() / base_kbps);
      // Adversary budget per public allocation: 0.5 * E[m] (+slack, which
      // amortises out for large N) — headroom is what a hidden volume can
      // consume without exceeding it.
      const double headroom = 0.5 / lambda - rate.mean();
      std::printf("%6.1f %6u %12.0f %9.1f%% %18.3f %18.3f\n", lambda, x,
                  tput.mean(), overhead, rate.mean(), headroom);
      char key[64];
      std::snprintf(key, sizeof key, "dummy.lambda%.1f_x%u", lambda, x);
      json.add(std::string(key) + ".write_kbps", tput.mean());
      json.add(std::string(key) + ".overhead_pct", overhead);
    }
  }
  std::printf("\nReading: higher lambda -> less dummy traffic -> lower "
              "overhead but thinner deniability headroom; x shifts the "
              "average trigger probability ((x-1)/4x -> ~25%%).\n");
  return true;
}

// ---- allocation policy --------------------------------------------------------

struct AllocOutcome {
  double write_kbps = 0;
  double read_kbps = 0;
  std::uint64_t longest_nonpublic_run = 0;
};

/// Public files, one large hidden file, more public files; then the
/// adversary's statistic: the longest run of consecutive non-public
/// allocated chunks.
AllocOutcome alloc_run(bool random_alloc, std::uint64_t bytes,
                       std::uint64_t seed) {
  StackOptions o;
  o.seed = seed;
  o.mobiceal_random_alloc = random_alloc;
  o.device_blocks = (bytes / 4096) * 8 + 32768;
  BenchStack s = make_scheme_stack("mobiceal", /*hidden=*/false, o);

  AllocOutcome out;
  out.write_kbps = kbps(bytes, dd_write(s, "/pub1.dat", bytes));
  out.read_kbps = kbps(bytes, dd_read(s, "/pub1.dat", bytes));
  // A failed switch would silently write the "secret" into the public
  // volume and corrupt the layout metric — fail loudly instead.
  if (!s.scheme->switch_volume(kHid)) {
    throw util::PolicyError("ablation: fast switch to hidden failed");
  }
  s.fs = &s.scheme->data_fs();
  dd_write(s, "/big_secret.bin", bytes / 2);
  s.scheme->reboot();
  s.scheme->unlock(kPub);
  s.fs = &s.scheme->data_fs();
  dd_write(s, "/pub2.dat", bytes / 4);
  s.scheme->reboot();

  adversary::Snapshot snap{s.raw->snapshot(), s.raw->block_size()};
  adversary::ThinMetadataReader meta(snap);
  const std::uint64_t nr = meta.superblock().nr_chunks;
  std::vector<bool> is_public(nr, false);
  for (std::uint64_t c : meta.chunks_of_volume(0)) is_public[c] = true;
  std::vector<bool> allocated(nr, false);
  for (std::uint64_t c : meta.allocated_chunks()) allocated[c] = true;
  std::uint64_t run_len = 0;
  for (std::uint64_t c = 0; c < nr; ++c) {
    run_len = allocated[c] && !is_public[c] ? run_len + 1 : 0;
    out.longest_nonpublic_run = std::max(out.longest_nonpublic_run, run_len);
  }
  return out;
}

bool ablate_alloc(JsonReport& json, std::uint64_t bytes) {
  const int reps = env_bench_reps(2);
  util::RunningStats rw, rr, rrun, sw, sr, srun;
  for (int rep = 0; rep < reps; ++rep) {
    const AllocOutcome r = alloc_run(/*random_alloc=*/true, bytes, 6000 + rep);
    const AllocOutcome q = alloc_run(/*random_alloc=*/false, bytes, 6100 + rep);
    rw.add(r.write_kbps);
    rr.add(r.read_kbps);
    rrun.add(static_cast<double>(r.longest_nonpublic_run));
    sw.add(q.write_kbps);
    sr.add(q.read_kbps);
    srun.add(static_cast<double>(q.longest_nonpublic_run));
  }

  std::printf("== Ablation: allocation policy (%llu MB public + %llu MB "
              "hidden file, %d reps) ==\n\n",
              static_cast<unsigned long long>(bytes >> 20),
              static_cast<unsigned long long>(bytes >> 21), reps);
  std::printf("%-12s %12s %12s %26s\n", "policy", "write KB/s", "read KB/s",
              "longest non-public run");
  std::printf("%-12s %12.0f %12.0f %20.0f chunks\n", "random", rw.mean(),
              rr.mean(), rrun.mean());
  std::printf("%-12s %12.0f %12.0f %20.0f chunks\n", "sequential", sw.mean(),
              sr.mean(), srun.mean());
  json.add("alloc.random.write_kbps", rw.mean());
  json.add("alloc.random.read_kbps", rr.mean());
  json.add("alloc.random.longest_run_chunks", rrun.mean());
  json.add("alloc.sequential.write_kbps", sw.mean());
  json.add("alloc.sequential.read_kbps", sr.mean());
  json.add("alloc.sequential.longest_run_chunks", srun.mean());

  // Sequential allocation can only betray a hidden file that spans more
  // chunks (64 KiB each) than one dummy burst.
  const bool armed = (bytes / 2) / (16 * 4096) > kBurstCap;
  const bool betrays = srun.mean() > kBurstCap;
  const bool g_rand = rrun.mean() <= kBurstCap;
  std::printf("\n-- shape checks --\n");
  std::printf("sequential betrays the hidden file (run > %llu-burst cap): "
              "%s (%.0f)%s\n",
              static_cast<unsigned long long>(kBurstCap),
              betrays ? "yes" : armed ? "NO" : "no", srun.mean(),
              armed ? "" : " [ungated: hidden file within one burst]");
  std::printf("random keeps runs within plausible bursts:              "
              "%s (%.0f)\n", g_rand ? "yes" : "NO", rrun.mean());
  std::printf("random-allocation write cost:                          "
              "%.1f%%\n", 100.0 * (1.0 - rw.mean() / sw.mean()));
  return (betrays || !armed) && g_rand;
}

// ---- dummy-space garbage collection ---------------------------------------------

bool ablate_gc(JsonReport& json, std::uint64_t /*bytes*/) {
  const int reps = env_bench_reps(3);
  std::printf("== Ablation: dummy-space GC (64 MiB device, aggressive "
              "dummy traffic, %d reps) ==\n\n", reps);
  std::printf("%12s %16s %16s %16s %12s\n", "min fraction", "used before",
              "used after", "dummy survives", "hidden OK");

  bool hidden_ok = true;
  for (double min_fraction : {0.3, 0.5, 0.8}) {
    util::RunningStats used_before, used_after, survive;
    bool fraction_ok = true;
    for (int rep = 0; rep < reps; ++rep) {
      StackOptions o;
      o.device_blocks = 16384;
      o.seed = 9000 + rep + static_cast<int>(min_fraction * 100);
      o.lambda = 0.5;  // aggressive dummy traffic
      core::MobiCealDevice::Config cfg;
      cfg.num_volumes = 6;
      cfg.chunk_blocks = 4;
      cfg.kdf_iterations = 16;
      cfg.fs_inode_count = 256;
      MobiCealStack s = make_mobiceal(o, cfg);
      core::MobiCealDevice& dev = *s.dev;

      // Hidden data first, then public usage accumulates dummy chunks.
      dev.boot(kHid);
      const auto secret = payload(150000, 7);
      dev.data_fs().write_file("/secret.bin", secret);
      dev.reboot();
      dev.boot(kPub);
      for (int i = 0; i < 30; ++i) {
        dev.data_fs().write_file("/p" + std::to_string(i),
                                 payload(50000, static_cast<std::uint8_t>(i)));
      }
      dev.reboot();

      const std::uint32_t hk = dev.hidden_index(kHid);
      auto dummy_chunks = [&] {
        std::uint64_t n = 0;
        for (std::uint32_t paper = 2; paper <= cfg.num_volumes; ++paper) {
          if (paper != hk) {
            n += dev.pool().mapped_chunks(core::MobiCealDevice::thin_id(paper));
          }
        }
        return n;
      };
      const std::uint64_t total = dev.pool().nr_chunks();
      const std::uint64_t before = total - dev.pool().free_chunks();
      const std::uint64_t dummy_before = dummy_chunks();

      // GC runs in hidden mode (the only safe mode, Sec. IV-D).
      dev.boot(kHid);
      dev.collect_garbage(min_fraction);
      const std::uint64_t after = total - dev.pool().free_chunks();
      const std::uint64_t dummy_after = dummy_chunks();
      fraction_ok = fraction_ok &&
                    dev.data_fs().read_file("/secret.bin") == secret;
      dev.reboot();

      used_before.add(100.0 * static_cast<double>(before) /
                      static_cast<double>(total));
      used_after.add(100.0 * static_cast<double>(after) /
                     static_cast<double>(total));
      survive.add(dummy_before
                      ? 100.0 * static_cast<double>(dummy_after) /
                            static_cast<double>(dummy_before)
                      : 0.0);
    }
    std::printf("%11.0f%% %15.1f%% %15.1f%% %15.1f%% %12s\n",
                min_fraction * 100.0, used_before.mean(), used_after.mean(),
                survive.mean(), fraction_ok ? "yes" : "NO");
    char key[32];
    std::snprintf(key, sizeof key, "gc.min%.0f", min_fraction * 100.0);
    json.add(std::string(key) + ".used_before_pct", used_before.mean());
    json.add(std::string(key) + ".used_after_pct", used_after.mean());
    json.add(std::string(key) + ".dummy_survives_pct", survive.mean());
    hidden_ok = hidden_ok && fraction_ok;
  }

  std::printf("\nReading: GC reclaims a random share of dummy space (never "
              "100%% — surviving noise is the deniability cover) and must "
              "leave hidden volumes untouched.\n");
  std::printf("\n-- shape checks --\n");
  std::printf("hidden data intact after every GC: %s\n",
              hidden_ok ? "yes" : "NO");
  return hidden_ok;
}

// ---- hidden-data size vs adversary advantage ------------------------------------

bool ablate_hidden_size(JsonReport& json, std::uint64_t /*bytes*/) {
  const int trials = env_bench_reps(16);
  std::printf("== Ablation: hidden-data size vs adversary advantage "
              "(MobiCeal, %d trials per point) ==\n\n", trials);
  std::printf("%22s %18s %22s %26s\n", "hidden/public ratio",
              "budget advantage", "mean-rate advantage",
              "nonpublic hidden vs cover");

  // Public traffic per round: 10 files x ~96 KB = ~960 KB.
  const std::uint32_t public_bytes = 96 * 1024;
  for (const double ratio : {0.05, 0.15, 0.4, 1.0}) {
    adversary::GameConfig cfg;
    cfg.scheme = "mobiceal";
    cfg.trials = static_cast<std::uint64_t>(trials);
    cfg.rounds = 3;
    cfg.public_files_per_round = 10;
    cfg.public_file_bytes = public_bytes;
    cfg.hidden_file_bytes =
        static_cast<std::uint32_t>(ratio * 10 * public_bytes);
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
    char key[40];
    std::snprintf(key, sizeof key, "hidden_size.ratio%.2f", ratio);
    json.add(std::string(key) + ".budget_adv", budget);
    json.add(std::string(key) + ".meanrate_adv", mean_rate);
  }

  std::printf("\nReading: small hidden payloads (the paper's expectation — "
              "\"sensitive data ... are usually small in size\") vanish in "
              "the dummy-traffic variance; as the hidden volume approaches "
              "the public traffic volume, simple statistics start to bite, "
              "which is exactly why the equal-size discipline exists.\n");
  return true;
}

struct Ablation {
  const char* name;
  bool (*run)(JsonReport& json, std::uint64_t bytes);
};

constexpr Ablation kAblations[] = {
    {"dummy", ablate_dummy},
    {"alloc", ablate_alloc},
    {"gc", ablate_gc},
    {"hidden_size", ablate_hidden_size},
};

}  // namespace

int main(int argc, char** argv) {
  JsonReport json("ablation", argc, argv);
  const std::uint64_t bytes = env_bench_bytes(24);
  json.add("workload_mb", static_cast<double>(bytes >> 20));
  std::string failed;
  for (const Ablation& a : kAblations) {
    if (!a.run(json, bytes)) failed += std::string(" ") + a.name;
    std::printf("\n");
  }
  if (!failed.empty()) {
    std::printf("shape checks FAILED:%s\n", failed.c_str());
    return 1;
  }
  return 0;
}
