// Table I reproduction: encryption overhead of the systems that resist
// multi-snapshot adversaries, each measured against plain Ext4 on its own
// evaluation device (the paper compares overheads, not absolute numbers,
// because the test environments differ):
//
//              Ext4 (MB/s)   Encrypted (MB/s)   Overhead
//   DEFY            800            50             93.75%   (nandsim, RAM)
//   HIVE         216.04          0.97             99.55%   (SATA SSD)
//   MobiCeal       19.5          15.2             22.05%   (Nexus 4 eMMC)
//
// The system list is not hardcoded: the bench walks SchemeRegistry::names()
// and measures every scheme whose capabilities include
// kMultiSnapshotSecure, on the timing model Table I used for it.
//
// Shape target: DEFY and HIVE pay >90%; MobiCeal pays ~20%. Gates (exit
// nonzero): DEFY and HIVE above 85%, MobiCeal below 35%.
#include <cstdio>
#include <string>

#include "harness.hpp"

using namespace mobiceal;
using namespace mobiceal::bench;

namespace {

// DEFY's nandsim is a RAM-backed MTD simulator: microsecond-class page ops.
blockdev::TimingModel nandsim_ram() {
  blockdev::TimingModel m;
  m.per_io_ns = 500;
  m.read_per_block_ns = 3'500;
  m.write_per_block_ns = 4'500;
  m.random_read_penalty_ns = 500;
  m.random_write_penalty_ns = 1'000;
  m.flush_ns = 20'000;
  return m;
}

/// The evaluation device each Table I system was measured on, plus the
/// paper's overhead figure for the printed comparison column.
struct TableEntry {
  const char* label;
  blockdev::TimingModel device;
  std::uint64_t blocks_factor;  // device sizing multiple of the workload
  const char* paper_overhead;
};

TableEntry table_entry(const std::string& scheme) {
  if (scheme == "defy") return {"DEFY", nandsim_ram(), 6, "93.75%"};
  if (scheme == "hive") {
    return {"HIVE", blockdev::TimingModel::sata_ssd(), 6, "99.55%"};
  }
  if (scheme == "mobiceal") {
    return {"MobiCeal", blockdev::TimingModel::nexus4_emmc(), 4, "22.05%"};
  }
  return {scheme.c_str(), blockdev::TimingModel::nexus4_emmc(), 4, "n/a"};
}

double seq_write_mbs(const std::string& scheme, const StackOptions& o,
                     std::uint64_t bytes, int reps) {
  util::RunningStats s;
  for (int rep = 0; rep < reps; ++rep) {
    StackOptions opt = o;
    opt.seed = 2000 + rep;
    BenchStack stack = scheme.empty()
                           ? make_raw_ext_stack(opt)
                           : make_scheme_stack(scheme, /*hidden=*/false, opt);
    s.add(kbps(bytes, dd_write(stack, "/t1.dat", bytes)) / 1024.0);
  }
  return s.mean();
}

}  // namespace

int main(int argc, char** argv) {
  JsonReport json("table1_overhead", argc, argv);
  const std::uint64_t bytes = env_bench_bytes(24);
  const int reps = env_bench_reps(3);
  json.add("workload_mb", static_cast<double>(bytes >> 20));

  std::printf("== Table I: overhead comparison (sequential write; %d reps, "
              "%llu MB) ==\n\n",
              reps, static_cast<unsigned long long>(bytes >> 20));
  std::printf("%-10s %14s %18s %10s %18s\n", "system", "Ext4 (MB/s)",
              "Encrypted (MB/s)", "Overhead", "paper overhead");

  double defy_overhead = 0, hive_overhead = 0, mc_overhead = 0;
  for (const std::string& scheme : api::SchemeRegistry::names()) {
    const auto& entry = api::SchemeRegistry::entry(scheme);
    if (!entry.capabilities.has(api::Capability::kMultiSnapshotSecure)) {
      continue;
    }
    const TableEntry te = table_entry(scheme);
    StackOptions o;
    o.device_model = te.device;
    o.device_blocks = (bytes / 4096) * te.blocks_factor + 32768;
    const double raw_mbs = seq_write_mbs("", o, bytes, reps);
    const double enc_mbs = seq_write_mbs(scheme, o, bytes, reps);
    const double overhead = 100.0 * (1.0 - enc_mbs / raw_mbs);
    std::printf("%-10s %14.2f %18.2f %9.2f%% %18s\n", te.label, raw_mbs,
                enc_mbs, overhead, te.paper_overhead);
    json.add(scheme + ".raw_write_kbps", raw_mbs * 1024.0);
    json.add(scheme + ".encrypted_write_kbps", enc_mbs * 1024.0);
    json.add(scheme + ".overhead_pct", overhead);
    if (scheme == "defy") defy_overhead = overhead;
    if (scheme == "hive") hive_overhead = overhead;
    if (scheme == "mobiceal") mc_overhead = overhead;
  }

  const bool g_log = defy_overhead > 85.0 && hive_overhead > 85.0;
  const bool g_mc = mc_overhead < 35.0;
  std::printf("\n-- shape checks --\n");
  std::printf("DEFY and HIVE above 85%%: %s\n", g_log ? "yes" : "NO");
  std::printf("MobiCeal below 35%%:     %s\n", g_mc ? "yes" : "NO");
  return g_log && g_mc ? 0 : 1;
}
