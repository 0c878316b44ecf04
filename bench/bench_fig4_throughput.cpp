// Figure 4 reproduction: sequential throughput (KB/s, mean ± stddev over
// repetitions) for dd-Write / dd-Read / B-Write / B-Read across the five
// configurations:
//   Android  — stock Android FDE
//   A-T-P    — public volume, thin provisioning + FDE, stock kernel
//   A-T-H    — hidden volume, thin provisioning + FDE, stock kernel
//   MC-P     — MobiCeal public volume
//   MC-H     — MobiCeal hidden volume
//
// The row list is built by walking the SchemeRegistry: each Fig. 4 scheme
// contributes a public-volume row plus a hidden-volume row when its
// capabilities include one ("A-T-*" is the registered "mobipluto" backend
// minus the random fill — thin provisioning + FDE on a stock kernel).
//
// Paper shape targets (Sec. VI-B): thin volumes barely affect writes but
// cost ~18% on reads; the MobiCeal kernel mods (dummy writes + random
// allocation) cost ~18% on writes but barely affect reads.
//
// Workload size / repetitions scale with MOBICEAL_BENCH_MB and
// MOBICEAL_BENCH_REPS (defaults 48 MB x 5; the paper used 400 MB x 10 on
// real hardware — virtual-clock throughput is size-invariant past a few MB).
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

using namespace mobiceal;
using namespace mobiceal::bench;

namespace {

struct RowSpec {
  std::string label;
  std::string scheme;  // SchemeRegistry key
  bool hidden = false;
  bool skip_random_fill = false;
};

struct Row {
  util::RunningStats dd_write, dd_read, b_write, b_read;
};

Row run_config(const RowSpec& spec, std::uint64_t bytes, int reps,
               const StackOptions& knobs) {
  Row row;
  for (int rep = 0; rep < reps; ++rep) {
    StackOptions o = knobs;  // queue depth + cache knobs, applied once
    o.seed = 1000 + rep;
    // Size the device to hold both files plus dummy traffic.
    o.device_blocks = (bytes / 4096) * 4 + 32768;
    o.skip_random_fill = spec.skip_random_fill;
    BenchStack s = make_scheme_stack(spec.scheme, spec.hidden, o);

    row.dd_write.add(kbps(bytes, dd_write(s, "/dd.dbf", bytes)));
    row.dd_read.add(kbps(bytes, dd_read(s, "/dd.dbf", bytes)));
    row.b_write.add(kbps(bytes, bonnie_write(s, "/bonnie.dat", bytes)));
    row.b_read.add(kbps(bytes, bonnie_read(s, "/bonnie.dat", bytes)));
  }
  return row;
}

void print_cell(const util::RunningStats& s) {
  std::printf("  %8.0f ±%5.0f", s.mean(), s.stddev());
}

}  // namespace

int main(int argc, char** argv) {
  JsonReport json("fig4_throughput", argc, argv);
  const std::uint64_t bytes = env_bench_bytes(48);
  const int reps = env_bench_reps(5);
  StackOptions knobs;
  knobs.stack.apply_knobs(argc, argv);
  const std::uint32_t qd = knobs.stack.queue_depth;
  json.add("workload_mb", static_cast<double>(bytes >> 20));
  json.add("queue_depth", static_cast<double>(qd));
  json.add("cache_blocks", static_cast<double>(knobs.stack.cache_blocks));
  json.add("stripes", static_cast<double>(knobs.stack.stripe_count));
  json.add("crypto_lanes", static_cast<double>(knobs.stack.crypto_lanes));
  json.add("clock_shards", static_cast<double>(knobs.stack.clock_shards));

  std::printf("== Figure 4: sequential throughput in KB/s (mean ± stddev, "
              "%d reps, %llu MB files, QD %u) ==\n\n",
              reps, static_cast<unsigned long long>(bytes >> 20), qd);
  std::printf("%-8s %16s %16s %16s %16s\n", "config", "dd-Write", "dd-Read",
              "B-Write", "B-Read");

  // Fig. 4 schemes in paper order; rows expand per registry capabilities.
  const struct {
    const char* scheme;
    const char* pub_label;
    const char* hid_label;
    bool skip_random_fill;
  } kFig4Schemes[] = {
      {"android_fde", "Android", nullptr, false},
      {"mobipluto", "A-T-P", "A-T-H", true},
      {"mobiceal", "MC-P", "MC-H", false},
  };
  std::vector<RowSpec> specs;
  for (const auto& s : kFig4Schemes) {
    const auto& entry = api::SchemeRegistry::entry(s.scheme);
    specs.push_back({s.pub_label, s.scheme, false, s.skip_random_fill});
    if (s.hid_label != nullptr &&
        entry.capabilities.has(api::Capability::kHiddenVolume)) {
      specs.push_back({s.hid_label, s.scheme, true, s.skip_random_fill});
    }
  }

  double android_write = 0, android_read = 0;
  double atp_write = 0, ath_read = 0;
  double mcp_write = 0, mch_read = 0;
  for (const RowSpec& spec : specs) {
    const Row row = run_config(spec, bytes, reps, knobs);
    std::printf("%-8s", spec.label.c_str());
    print_cell(row.dd_write);
    print_cell(row.dd_read);
    print_cell(row.b_write);
    print_cell(row.b_read);
    std::printf("\n");
    json.add(spec.label + ".dd_write_kbps", row.dd_write.mean());
    json.add(spec.label + ".dd_read_kbps", row.dd_read.mean());
    json.add(spec.label + ".b_write_kbps", row.b_write.mean());
    json.add(spec.label + ".b_read_kbps", row.b_read.mean());
    if (spec.label == "Android") {
      android_write = row.dd_write.mean();
      android_read = row.dd_read.mean();
    }
    if (spec.label == "A-T-P") atp_write = row.dd_write.mean();
    if (spec.label == "A-T-H") ath_read = row.dd_read.mean();
    if (spec.label == "MC-P") mcp_write = row.dd_write.mean();
    if (spec.label == "MC-H") mch_read = row.dd_read.mean();
  }

  std::printf("\n-- shape checks against the paper --\n");
  std::printf("thin-vs-Android write change : %+5.1f%%  (paper: ~0%%)\n",
              100.0 * (atp_write - android_write) / android_write);
  std::printf("thin-vs-Android read change  : %+5.1f%%  (paper: ~-18%%)\n",
              100.0 * (ath_read - android_read) / android_read);
  std::printf("MobiCeal-vs-thin write change: %+5.1f%%  (paper: ~-18%%)\n",
              100.0 * (mcp_write - atp_write) / atp_write);
  std::printf("MobiCeal-vs-thin read change : %+5.1f%%  (paper: ~0%%)\n",
              100.0 * (mch_read - ath_read) / ath_read);
  json.add("shape.thin_write_change_pct",
           100.0 * (atp_write - android_write) / android_write);
  json.add("shape.thin_read_change_pct",
           100.0 * (ath_read - android_read) / android_read);
  json.add("shape.mobiceal_write_change_pct",
           100.0 * (mcp_write - atp_write) / atp_write);
  json.add("shape.mobiceal_read_change_pct",
           100.0 * (mch_read - ath_read) / ath_read);
  return 0;
}
