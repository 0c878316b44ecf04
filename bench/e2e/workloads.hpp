// The four MobiCeal workloads of the end-to-end benchmark.
//
// Every workload is one closed-loop client (the next request leaves when
// the previous one returns) on the `mobiceal` scheme, built through
// api::SchemeRegistry over backing devices this benchmark owns. A
// repetition boots a fresh phone (set-up: backing store, create, unlock),
// then runs the measured phase: the workload's requests on the public
// volume, a lock-screen fast switch, and a write/read tail on the hidden
// volume. Every byte written is read back and checked.
//
// The phone's own entropy (SchemeOptions::rng_seed, which drives random
// allocation and the dummy-write bursts) and each workload's request
// pattern are fixed, so a workload is one request sequence on one device;
// `--seed` draws the data, the contents of every block written. The
// virtual results therefore repeat bit for bit on every seed, and their
// bounds can be tight enough to catch a model change of under 1%.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace mobiceal::e2e {

struct WorkloadSpec {
  std::string name;
  /// StackConfig flags, parsed by api::StackConfig::from_knobs.
  std::vector<std::string> knobs;
  /// Crypto worker threads (CryptoWorkerPool::set_shared_threads); with
  /// the client thread, the process stays within 4 threads.
  unsigned crypto_threads = 0;
  std::uint64_t device_mib = 0;  // logical capacity, split over stripes
  std::uint32_t inode_count = 1024;
  std::uint64_t data_mib = 0;       // dd size, or the ftl_gc file
  std::uint64_t request_kib = 1024;  // dd request size
  std::uint64_t hidden_mib = 0;     // hidden-volume tail
  std::uint32_t files = 0;          // app_fsync
  std::uint32_t ops = 0;            // app_fsync request count
  std::uint32_t passes = 0;         // ftl_gc rewrite passes
};

/// Throws std::invalid_argument for an unknown name. `smoke` shrinks every
/// size so the whole workload runs in well under a second.
WorkloadSpec workload_spec(const std::string& name, bool smoke);

/// Bytes moved and the virtual time the requests that moved them took.
struct Rate {
  std::uint64_t bytes = 0;
  std::uint64_t virt_ns = 0;
  double kbps() const;
};

/// Backing-device counters over the measured phase, summed over stripes.
struct DeviceCounters {
  std::uint64_t write_blocks = 0, read_blocks = 0, flushes = 0;
  std::uint64_t sequential_ios = 0, random_ios = 0, async_ios = 0;
  std::vector<std::uint64_t> stripe_write_blocks;
  std::uint64_t ftl_host_writes = 0, ftl_programs = 0;
  std::uint64_t ftl_gc_relocations = 0, ftl_erases = 0;
};

struct RepResult {
  double setup_s = 0;  // host: backing store + create + unlock
  double host_s = 0;   // host: the measured phase
  Rate write, read, hidden_write, hidden_read;
  std::vector<std::uint64_t> write_lat_ns, read_lat_ns;  // per request
  std::uint64_t switch_ns = 0;         // virtual
  std::uint64_t virt_elapsed_ns = 0;   // measured phase, virtual
  std::uint64_t user_write_blocks = 0, user_read_blocks = 0;
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t digest = 0;  // final logical image of every backing store
  DeviceCounters dev;

  /// The seed-determined results: every virtual metric by name. Two
  /// repetitions of one seed must produce identical maps.
  std::map<std::string, double> virtual_metrics() const;
};

/// One repetition. With `tracer` enabled, every call into the stack is
/// recorded as a span.
RepResult run_rep(const WorkloadSpec& spec, std::uint64_t seed,
                  Tracer& tracer);

}  // namespace mobiceal::e2e
