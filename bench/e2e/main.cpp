// mobiceal_e2e — the end-to-end benchmark, one workload per process.
//
//   mobiceal_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                [--trace-dir DIR] [--layers] [--smoke] [--out FILE]
//
// Untraced repetitions give the end-to-end metrics; `--trace 1` adds one
// traced repetition (spans written to DIR/NAME.trace.json) and the
// isolated layer probes, and reports the per-layer metrics instead. The
// first repetition is a warm-up, checked but not timed; repetitions then
// run for as long as the next one still ends within S seconds of wall
// time, and at least two are timed (default S: 30, the run_seconds of
// BENCHMARK.json, for which the bounds there were calibrated). Every
// metric is printed
// by name with its unit; the last line of stdout is one JSON object with
// the keys correct, attempted, failed and metrics. `--out` also writes
// every metric with its per-repetition samples, for agree.py. Exits 1
// when a check fails, 2 on bad usage or a MOBICEAL_* variable in the
// environment (every stack knob comes from the workload table).
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "crypto/crypto_pool.hpp"
#include "layers.hpp"
#include "trace.hpp"
#include "workloads.hpp"

extern char** environ;  // NOLINT(readability-redundant-declaration)

namespace mobiceal::e2e {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  std::string trace_dir = ".";
  bool layers = false;
  bool smoke = false;
  std::string out;
};

struct Metric {
  std::string name, unit;
  double value = 0;
  std::vector<double> samples;  // per repetition, when there are several
};

int usage(const char* why) {
  std::fprintf(stderr,
               "mobiceal_e2e: %s\n"
               "usage: mobiceal_e2e --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-dir DIR] [--layers] "
               "[--smoke] [--out FILE]\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Options& o, std::string& err) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (a == "--layers") {
        o.layers = true;
      } else if (a == "--smoke") {
        o.smoke = true;
      } else if (!has_value) {
        err = "missing value or unknown flag " + a;
        return false;
      } else if (a == "--workload") {
        o.workload = argv[++i];
      } else if (a == "--seed") {
        o.seed = std::stoull(argv[++i]);
      } else if (a == "--seconds") {
        o.seconds = std::stod(argv[++i]);
      } else if (a == "--trace") {
        const std::string v = argv[++i];
        if (v != "0" && v != "1") {
          err = "--trace takes 0 or 1";
          return false;
        }
        o.trace = v == "1";
      } else if (a == "--trace-dir") {
        o.trace_dir = argv[++i];
      } else if (a == "--out") {
        o.out = argv[++i];
      } else {
        err = "unknown flag " + a;
        return false;
      }
    } catch (const std::exception&) {
      err = "bad value for " + a;
      return false;
    }
  }
  if (o.workload.empty()) err = "--workload is required";
  if (!(o.seconds >= 0)) err = "--seconds must be >= 0";
  return err.empty();
}

/// Scans environ (not the knob registry's lookup) so that any MOBICEAL_*
/// variable is caught, including ones no knob reads yet.
std::string knob_in_environment() {
  for (char** e = environ; e && *e; ++e) {
    if (std::strncmp(*e, "MOBICEAL_", 9) == 0) {
      return std::string(*e, std::strcspn(*e, "="));
    }
  }
  return "";
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// First and third quartile, as Python's statistics.quantiles(n=4).
std::pair<double, double> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 2) return {median(v), median(v)};
  const auto q = [&](std::size_t i) {
    const std::size_t m = n + 1;
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    // Signed: the clamp can put 4 * j above i * m.
    const double delta =
        static_cast<double>(i * m) - 4.0 * static_cast<double>(j);
    return (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
  };
  return {q(1), q(3)};
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Virtual metrics and their units; the model's clock makes them a pure
/// function of the code and the seed.
const std::map<std::string, std::string>& virtual_units() {
  static const std::map<std::string, std::string> kUnits = {
      {"write_kbps", "KiB/s"},        {"read_kbps", "KiB/s"},
      {"write_p50_ms", "ms"},         {"write_p99_ms", "ms"},
      {"read_p50_ms", "ms"},          {"read_p99_ms", "ms"},
      {"hidden_write_kbps", "KiB/s"}, {"hidden_read_kbps", "KiB/s"},
      {"switch_ms", "ms"},            {"virt_elapsed_ms", "ms"},
  };
  return kUnits;
}

/// The end-to-end metrics BENCHMARK.json declares, in its order. The
/// per-request percentiles and switch_ms are printed and saved too, and
/// agree.py compares them bit for bit, but they are not declared: they are
/// times that read the same on every run and every seed.
const std::vector<std::string>& declared_end_to_end() {
  static const std::vector<std::string> kNames = {
      "setup_s",   "host_s",            "peak_rss_mb",     "write_kbps",
      "read_kbps", "hidden_write_kbps", "hidden_read_kbps"};
  return kNames;
}

/// What a run keeps of each untraced repetition. Not the whole RepResult:
/// its per-request latencies would grow the process with every
/// repetition and show in peak_rss_mb.
struct RepSummary {
  double setup_s = 0, host_s = 0;
  std::map<std::string, double> virt;
  std::uint64_t digest = 0;
};

/// Untimed repetitions at the start of a run: the first warms the caches
/// and the allocator, and its page faults would otherwise count.
constexpr std::size_t kWarmUp = 1;
constexpr std::size_t kMinTimed = 2;

/// The end-to-end metrics of the timed repetitions. setup_s is their
/// median. host_s is the fastest of them: host noise only ever adds time
/// to a repetition, and on a shared machine it comes in episodes that can
/// slow half of a run, which moves a run's median but not its fastest
/// repetition. The median and quartiles are printed next to it.
std::vector<Metric> end_to_end(const std::vector<RepSummary>& reps) {
  std::vector<double> setup, host;
  for (std::size_t i = kWarmUp; i < reps.size(); ++i) {
    setup.push_back(reps[i].setup_s);
    host.push_back(reps[i].host_s);
  }
  std::vector<Metric> m = {
      {"setup_s", "s", median(setup), setup},
      {"host_s", "s", *std::min_element(host.begin(), host.end()), host},
      {"peak_rss_mb", "MiB", peak_rss_mib(), {}}};
  for (const auto& [name, value] : reps.front().virt) {
    m.push_back({name, virtual_units().at(name), value, {}});
  }
  return m;
}

/// num / den as doubles; 0 when there is nothing to divide by.
double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0
                  : static_cast<double>(num) / static_cast<double>(den);
}

std::vector<Metric> per_layer(const RepResult& r, const Tracer& tracer,
                              double untraced_host_s) {
  std::vector<Metric> m;
  const auto add = [&m](std::string name, const char* unit, double v) {
    m.push_back({std::move(name), unit, v, {}});
  };
  const auto totals = tracer.totals();
  const auto total = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  for (const char* name :
       {"api.create", "api.unlock", "api.switch", "blockdev.alloc"}) {
    add(std::string(name) + "_ms", "ms",
        static_cast<double>(total(name).host_ns) / 1e6);
  }
  // Virtual time as a share of the measured phase: several calls cost the
  // same virtual time for every seed, while their share moves with the
  // rest of the phase.
  for (const char* call : {"write", "read", "sync", "create"}) {
    const std::string name = std::string("fs.") + call;
    const SpanTotals t = total(name);
    add(name + ".calls", "count", static_cast<double>(t.calls));
    add(name + ".host_ms", "ms", static_cast<double>(t.host_ns) / 1e6);
    add(name + ".virt_pct", "%", 100 * ratio(t.virt_ns, r.virt_elapsed_ns));
  }
  const DeviceCounters& d = r.dev;
  const std::uint64_t requests = d.sequential_ios + d.random_ios;
  const std::uint64_t user_blocks = r.user_write_blocks + r.user_read_blocks;
  const std::uint64_t stripe_max = *std::max_element(
      d.stripe_write_blocks.begin(), d.stripe_write_blocks.end());
  std::uint64_t stripe_sum = 0;
  for (const std::uint64_t w : d.stripe_write_blocks) stripe_sum += w;
  add("blockdev.write_blocks_per_user_block", "ratio",
      ratio(d.write_blocks, r.user_write_blocks));
  add("blockdev.read_blocks_per_user_block", "ratio",
      ratio(d.read_blocks, r.user_read_blocks));
  add("blockdev.random_io_pct", "%", 100 * ratio(d.random_ios, requests));
  add("blockdev.flushes_per_op", "ratio", ratio(d.flushes, r.attempted));
  add("blockdev.requests_per_user_mb", "1/MiB",
      ratio(requests * 256, user_blocks));  // 256 blocks per MiB
  add("blockdev.async_io_pct", "%", 100 * ratio(d.async_ios, requests));
  add("dm.stripe_write_skew", "ratio",
      ratio(stripe_max * d.stripe_write_blocks.size(), stripe_sum));
  add("ftl.write_amplification", "ratio",
      ratio(d.ftl_programs, d.ftl_host_writes));
  add("ftl.gc_relocations", "count",
      static_cast<double>(d.ftl_gc_relocations));
  add("ftl.erases", "count", static_cast<double>(d.ftl_erases));
  add("trace.overhead_pct", "%", 100 * (r.host_s / untraced_host_s - 1));
  return m;
}

/// The traced repetition's accounting identities; returns the failures.
std::vector<std::string> check_identities(const RepResult& r,
                                          const Tracer& tracer) {
  std::vector<std::string> bad;
  std::uint64_t virt = 0, host = 0, setup = 0;
  for (const auto& [name, t] : tracer.totals()) {
    if (name.rfind("fs.", 0) == 0 || name == "api.switch") {
      virt += t.virt_ns;
      host += t.host_ns;
    }
    if (name == "api.create" || name == "api.unlock" ||
        name == "blockdev.alloc") {
      setup += t.host_ns;
    }
  }
  if (virt != r.virt_elapsed_ns) {
    bad.push_back("fs + switch spans cover " + std::to_string(virt) +
                  " virtual ns of " + std::to_string(r.virt_elapsed_ns));
  }
  const double coverage = static_cast<double>(host) / (r.host_s * 1e9);
  if (coverage < 0.95) {
    bad.push_back("fs + switch spans cover " + json_number(100 * coverage) +
                  "% of host_s (< 95%)");
  }
  const double setup_s = static_cast<double>(setup) * 1e-9;
  std::printf("identities: spans cover %" PRIu64 " of %" PRIu64
              " virtual ns and %.2f%% of host_s; set-up spans %.4f s of "
              "setup_s %.4f s\n",
              virt, r.virt_elapsed_ns, 100 * coverage, setup_s, r.setup_s);
  if (std::abs(setup_s - r.setup_s) > 0.05 * r.setup_s) {
    bad.push_back("create + unlock + alloc spans are " + json_number(setup_s) +
                  " s against setup_s " + json_number(r.setup_s) + " s");
  }
  return bad;
}

void print_table(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("  %-40s %16.6f %-6s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.samples.size() > 1) {
      const auto [q1, q3] = quartiles(m.samples);
      std::printf("  median %.4f  q1 %.4f  q3 %.4f  n %zu", median(m.samples),
                  q1, q3, m.samples.size());
    }
    std::printf("\n");
  }
}

bool write_results(const std::string& path, const Options& o,
                   const RepSummary& first, std::uint64_t attempted,
                   std::uint64_t failed, bool correct,
                   const std::vector<Metric>& ms) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f,
               "{\n  \"workload\": \"%s\",\n  \"seed\": %" PRIu64
               ",\n  \"smoke\": %s,\n  \"correct\": %s,\n"
               "  \"attempted\": %" PRIu64 ",\n  \"failed\": %" PRIu64
               ",\n  \"digest\": \"%016" PRIx64 "\",\n  \"virtual\": {",
               o.workload.c_str(), o.seed, o.smoke ? "true" : "false",
               correct ? "true" : "false", attempted, failed, first.digest);
  // The seed-determined results, for agree.py's bit-identity check.
  const auto& virt = first.virt;
  for (auto it = virt.begin(); it != virt.end(); ++it) {
    std::fprintf(f, "%s\"%s\": %s", it == virt.begin() ? "" : ", ",
                 it->first.c_str(), json_number(it->second).c_str());
  }
  std::fprintf(f, "},\n  \"metrics\": {");
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const Metric& m = ms[i];
    std::fprintf(f,
                 "%s\n    \"%s\": {\"value\": %s, \"unit\": \"%s\", "
                 "\"samples\": [",
                 i ? "," : "", m.name.c_str(), json_number(m.value).c_str(),
                 m.unit.c_str());
    const std::vector<double> samples =
        m.samples.empty() ? std::vector<double>{m.value} : m.samples;
    for (std::size_t s = 0; s < samples.size(); ++s) {
      std::fprintf(f, "%s%s", s ? ", " : "", json_number(samples[s]).c_str());
    }
    std::fprintf(f, "]}");
  }
  std::fprintf(f, "\n  }\n}\n");
  return std::fclose(f) == 0;
}

int run(const Options& o) {
  const WorkloadSpec spec = workload_spec(o.workload, o.smoke);
  // Crypto workers plus this client thread stay within the CPU count.
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  crypto::CryptoWorkerPool::set_shared_threads(
      std::min(spec.crypto_threads, cpus - 1));
  std::vector<std::string> problems;
  Tracer tracer;

  // Untraced repetitions: the end-to-end numbers. The run stops before a
  // repetition (judged by the median of those so far) would overrun the
  // budget, so it lasts the budget and not a repetition more.
  const double budget_s = o.trace ? o.seconds / 2 : o.seconds;
  const auto seconds_since = [](std::uint64_t t0) {
    return static_cast<double>(host_now_ns() - t0) * 1e-9;
  };
  const std::uint64_t start = host_now_ns();
  std::vector<RepSummary> results;
  std::vector<double> rep_s;  // whole repetitions, checks included
  std::uint64_t attempted = 0, failed = 0;
  while (results.size() < kWarmUp + kMinTimed ||
         seconds_since(start) + median(rep_s) <= budget_s) {
    const std::uint64_t rep_start = host_now_ns();
    const RepResult r = run_rep(spec, o.seed, tracer);
    rep_s.push_back(seconds_since(rep_start));
    results.push_back({r.setup_s, r.host_s, r.virtual_metrics(), r.digest});
    attempted += r.attempted;
    failed += r.failed;
  }
  const RepSummary& first = results.front();
  const auto same_as_first = [&](const std::map<std::string, double>& virt,
                                 std::uint64_t digest) {
    return virt == first.virt && digest == first.digest;
  };
  for (std::size_t i = 1; i < results.size(); ++i) {
    if (!same_as_first(results[i].virt, results[i].digest)) {
      problems.push_back("repetition " + std::to_string(i) +
                         " differs from repetition 0 in virtual metrics or "
                         "final image");
    }
  }

  std::vector<Metric> metrics = end_to_end(results);
  std::vector<std::string> reported = declared_end_to_end();

  if (o.trace) {
    tracer.set_enabled(true);
    const RepResult traced = run_rep(spec, o.seed, tracer);
    tracer.set_enabled(false);
    attempted += traced.attempted;
    failed += traced.failed;
    if (!same_as_first(traced.virtual_metrics(), traced.digest)) {
      problems.push_back("traced repetition differs from untraced ones");
    }
    for (const std::string& bad : check_identities(traced, tracer)) {
      problems.push_back("identity: " + bad);
    }
    const std::string path = o.trace_dir + "/" + o.workload + ".trace.json";
    if (!tracer.write_chrome_json(path)) {
      problems.push_back("cannot write " + path);
    }
    // One traced repetition against the typical untraced one: the median
    // of host_s's samples (end_to_end puts host_s second).
    const double untraced_host_s = median(metrics[1].samples);
    std::vector<Metric> layer = per_layer(traced, tracer, untraced_host_s);
    reported.clear();
    for (const Metric& m : layer) reported.push_back(m.name);
    metrics.insert(metrics.end(), layer.begin(), layer.end());

    std::printf("span self time (traced repetition):\n");
    for (const auto& [name, t] : tracer.totals()) {
      std::printf("  %-16s calls %8" PRIu64 "  host %10.3f ms  self %10.3f ms"
                  "  virtual %12.3f ms\n",
                  name.c_str(), t.calls, static_cast<double>(t.host_ns) / 1e6,
                  static_cast<double>(t.self_host_ns) / 1e6,
                  static_cast<double>(t.virt_ns) / 1e6);
    }
  }
  if (o.trace || o.layers) {
    for (const LayerMetric& l : run_layer_probes(o.smoke)) {
      metrics.push_back({l.name, l.unit, l.value, {}});
      if (o.trace) reported.push_back(l.name);
    }
  }

  if (failed > 0) {
    problems.push_back(std::to_string(failed) + " of " +
                       std::to_string(attempted) + " requests failed");
  }
  metrics.push_back({"fail_ratio", "ratio", ratio(failed, attempted), {}});
  const bool correct = problems.empty();

  std::printf("%s seed %" PRIu64 ": %zu repetitions (%zu warm-up)%s, digest "
              "%016" PRIx64 "\n",
              o.workload.c_str(), o.seed, results.size(), kWarmUp,
              o.trace ? " + 1 traced" : "", first.digest);
  print_table(metrics);
  for (const std::string& p : problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  if (!o.out.empty() &&
      !write_results(o.out, o, first, attempted, failed, correct, metrics)) {
    std::fprintf(stderr, "mobiceal_e2e: cannot write %s\n", o.out.c_str());
  }

  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : metrics) by_name[m.name] = &m;
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    const Metric& m = *by_name.at(reported[i]);
    line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace mobiceal::e2e

int main(int argc, char** argv) {
  using namespace mobiceal::e2e;
  Options o;
  std::string err;
  if (!parse(argc, argv, o, err)) return usage(err.c_str());
  if (const std::string knob = knob_in_environment(); !knob.empty()) {
    std::fprintf(stderr,
                 "mobiceal_e2e: refusing to run with %s set: every stack "
                 "knob comes from the workload table\n",
                 knob.c_str());
    return 2;
  }
  try {
    workload_spec(o.workload, o.smoke);
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mobiceal_e2e: %s\n", e.what());
    return 1;
  }
}
