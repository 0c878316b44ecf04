// The dummy-write mechanism — MobiCeal's central defence against
// multi-snapshot adversaries (Sec. IV-B "Dummy Write", Sec. V-A).
//
// Each time the public volume provisions a data chunk, a dummy write fires
// with bounded, drifting probability:
//
//     fire  <=>  rand <= stored_rand mod x,     rand ~ U[1, 2x]
//
// so the firing probability is (stored_rand mod x)/(2x) < 50% and changes
// whenever stored_rand refreshes (the kernel implementation reuses jiffies,
// refreshed at most hourly; we refresh from the CSPRNG on the same
// schedule). A firing writes m chunks of random noise into a dummy volume,
//
//     m ~ round(Exp(lambda))        (paper: m' = -ln(1-f)/lambda)
//
// giving the wide-variance burst sizes the deniability argument needs.
#pragma once

#include <cstdint>

#include "thin/thin_pool.hpp"
#include "util/rng.hpp"
#include "util/sim_clock.hpp"

namespace mobiceal::core {

struct DummyWriteConfig {
  /// The paper's x (Sec. IV-B): trigger threshold modulus. Fixed at system
  /// initialisation; the paper's example value is 50.
  std::uint32_t x = 50;
  /// Rate parameter of the exponential burst-size distribution. We use the
  /// paper's example value lambda = 1 ("each dummy write will be allocated
  /// one free block on average", Sec. IV-B), which also lands total write
  /// overhead in the paper's measured 18-22% band (bench_fig4_throughput).
  double lambda = 1.0;
  /// How burst sizes are discretised from the exponential variate.
  enum class Rounding { kNearest, kCeil } rounding = Rounding::kNearest;
  /// stored_rand refresh interval in virtual nanoseconds (impl: 1 hour).
  std::uint64_t refresh_ns = 3'600ULL * 1'000'000'000ULL;
  /// Probability that a dummy chunk is filled completely; otherwise a random
  /// prefix of its blocks is filled, mirroring the partially-written chunks
  /// real file systems leave behind (keeps per-block patterns of dummy and
  /// real volumes in the same distribution).
  double full_fill_prob = 0.5;
  /// Number of virtual volumes n (V1 public, V2..Vn hidden/dummy).
  std::uint32_t num_volumes = 8;
};

/// Running statistics, exposed for tests and the ablation benchmarks.
struct DummyWriteStats {
  std::uint64_t public_allocations = 0;  // observer invocations
  std::uint64_t triggers = 0;            // dummy writes fired
  std::uint64_t chunks_written = 0;      // total dummy chunks
  std::uint64_t blocks_written = 0;      // total noise blocks
  std::uint64_t skipped_no_space = 0;    // pool/volume full
};

class DummyWriteEngine {
 public:
  /// `paper_index_of_thin` maps thin volume ids to the paper's 1-based
  /// volume labels; we use thin id = paper index - 1 throughout core.
  DummyWriteEngine(DummyWriteConfig config, util::Rng& rng,
                   const util::SimClock* clock);

  /// Hook body: called by the pool observer when the public volume
  /// provisions a fresh chunk.
  void on_public_allocation(thin::ThinPool& pool);

  /// Decision primitive (exposed for distribution tests): draws rand and
  /// compares against stored_rand mod x.
  bool should_trigger();

  /// Burst-size primitive: m ~ discretised Exp(lambda). May return 0 under
  /// kNearest rounding (trigger fires but writes nothing).
  std::uint32_t burst_size();

  /// Dummy volume selector: j = (stored_rand mod (n-1)) + 2, paper Sec IV-C.
  std::uint32_t pick_dummy_volume() const;

  /// Forces a stored_rand refresh (tests; normally time-driven).
  void refresh_stored_rand();

  std::uint64_t stored_rand() const noexcept { return stored_rand_; }
  const DummyWriteStats& stats() const noexcept { return stats_; }
  const DummyWriteConfig& config() const noexcept { return config_; }

 private:
  void maybe_refresh();
  std::uint32_t pick_prefix_blocks(std::uint32_t chunk_blocks);

  DummyWriteConfig config_;
  util::Rng& rng_;
  const util::SimClock* clock_;  // may be null (tests)
  std::uint64_t stored_rand_ = 0;
  std::uint64_t last_refresh_ns_ = 0;
  DummyWriteStats stats_;
};

}  // namespace mobiceal::core
