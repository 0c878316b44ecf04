// Device service-time models and the virtual-time wrapper.
//
// All performance results in the paper are throughput/latency measurements
// on physical media (Nexus 4 eMMC, Samsung 840 SSD, nandsim). We replace the
// physical medium with a deterministic service-time model: every block I/O
// advances a util::SimClock by an amount depending on transfer size and
// access locality. Throughput ratios between configurations — the result
// the paper reports — are preserved, and runs replay exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "blockdev/block_device.hpp"
#include "util/sim_clock.hpp"

namespace mobiceal::blockdev {

/// Per-operation service-time parameters (all nanoseconds).
/// eMMC characteristics matter here: random *writes* are much more expensive
/// than random *reads* (FTL garbage collection / erase-block churn), which
/// is why MobiCeal's random allocation costs writes more than reads.
struct TimingModel {
  /// Fixed cost per I/O command (controller + FTL overhead).
  std::uint64_t per_io_ns = 8'000;
  /// Streaming transfer cost per 4 KiB for reads.
  std::uint64_t read_per_block_ns = 122'000;
  /// Streaming transfer cost per 4 KiB for writes.
  std::uint64_t write_per_block_ns = 178'000;
  /// Extra cost when a read is not sequential to the previous access.
  std::uint64_t random_read_penalty_ns = 40'000;
  /// Extra cost when a write is not sequential to the previous access.
  std::uint64_t random_write_penalty_ns = 260'000;
  /// Cost of a flush/barrier.
  std::uint64_t flush_ns = 900'000;

  /// Nexus 4 eMMC (16 GB) calibrated so raw dd sequential throughput lands
  /// near the paper's device: ~21 MB/s write, ~30 MB/s read.
  static TimingModel nexus4_emmc();

  /// Desktop SATA SSD (HIVE's Samsung 840 EVO): ~260 MB/s class.
  static TimingModel sata_ssd();

  /// Simulated raw NAND (DEFY's nandsim): fast page reads, slow programs.
  static TimingModel nand_sim();
};

/// Wraps a device; charges virtual time per I/O and counts operations.
/// The clock is shared across the whole stack so CPU costs (crypto, thin
/// metadata lookups) can be charged onto the same timeline.
///
/// Queue-depth model (the async submit path): per-command overhead —
/// per_io_ns plus any locality penalty — is serialised on one command
/// channel (the controller/FTL processes command setup in submission
/// order), while the data transfers of up to queue_depth() requests
/// proceed in parallel on independent transfer slots (multi-die / multi-
/// plane parallelism). Locality is judged in submission order, so the
/// model is a pure function of the request sequence: repeated runs and
/// different crypto worker-thread counts produce the identical virtual
/// timeline. Synchronous I/O issued while async requests are in flight
/// first drains the queue (a sync op is an implicit barrier).
class TimedDevice final : public BlockDevice {
 public:
  TimedDevice(std::shared_ptr<BlockDevice> inner, TimingModel model,
              std::shared_ptr<util::SimClock> clock);
  ~TimedDevice() override;

  TimedDevice(const TimedDevice&) = delete;
  TimedDevice& operator=(const TimedDevice&) = delete;

  std::size_t block_size() const noexcept override {
    return inner_->block_size();
  }
  std::uint64_t num_blocks() const noexcept override {
    return inner_->num_blocks();
  }
  void flush() override;

  util::SimClock& clock() noexcept { return *clock_; }
  const TimingModel& model() const noexcept { return model_; }

  /// Operation counters (reset with reset_counters()). reads()/writes()
  /// count *blocks* moved; sequential_ios()/random_ios() count I/O
  /// *requests* (a vectored call is one request).
  std::uint64_t reads() const noexcept { return reads_; }
  std::uint64_t writes() const noexcept { return writes_; }
  std::uint64_t flushes() const noexcept { return flushes_; }
  std::uint64_t sequential_ios() const noexcept { return sequential_; }
  std::uint64_t random_ios() const noexcept { return random_; }
  /// Synchronous requests serviced — every read_block/write_block and
  /// vectored call (subset of the request counters above).
  std::uint64_t vectored_ios() const noexcept { return vectored_; }
  /// Requests serviced through the async submit path.
  std::uint64_t async_ios() const noexcept { return async_; }
  void reset_counters() noexcept;

  /// Reconfigures the modelled queue depth. Drains in-flight requests
  /// first so the change is a clean cut on the virtual timeline.
  void set_queue_depth(std::uint32_t depth) override;

 protected:
  /// Async submission: serial command phase + overlapped transfer phase
  /// (see class comment). Data moves to the inner device immediately.
  std::uint64_t do_submit(const IoRequest& req) override;

  /// Completions become visible once the clock reaches them.
  std::uint64_t completion_cutoff() const noexcept override;

  /// Advances the clock past every in-flight request.
  void do_drain() override;
  /// Advances the clock to at most `cutoff` (never clears outstanding
  /// queue tags — requests completing after the cutoff stay in flight and
  /// are reaped by admission control or a later barrier).
  void do_wait_until(std::uint64_t cutoff) override;
  /// Vectored I/O is costed as ONE command (per-IO overhead + at most one
  /// locality penalty) plus `count` sequential block transfers — the reason
  /// batched paths win virtual time over per-block loops.
  void do_read_blocks(std::uint64_t first, std::uint64_t count,
                      util::MutByteSpan out) override;
  void do_write_blocks(std::uint64_t first, util::ByteSpan data) override;

 private:
  /// Synchronous service of `count` blocks at `first`: drains in-flight
  /// requests, charges the time, updates locality state and counters.
  void charge(std::uint64_t first, std::uint64_t count, bool is_write);

  /// Command cost for a request at `first` (per-IO overhead + locality
  /// penalty); updates locality state and the request counters.
  std::uint64_t command_ns(std::uint64_t first, std::uint64_t count,
                           bool is_write);

  /// Implicit barrier before synchronous service: advances the clock past
  /// all in-flight async requests. No-op when nothing is in flight.
  void advance_to_idle();

  /// Resizes the transfer-slot array to the configured queue depth.
  void ensure_slots();

  std::shared_ptr<BlockDevice> inner_;
  TimingModel model_;
  std::shared_ptr<util::SimClock> clock_;
  std::uint64_t next_expected_ = 0;  // block after the last access
  bool has_last_ = false;
  std::uint64_t reads_ = 0, writes_ = 0, flushes_ = 0;
  std::uint64_t sequential_ = 0, random_ = 0, vectored_ = 0, async_ = 0;
  /// Async service state: when the serial command channel frees up, and
  /// when each of the queue_depth() transfer slots frees up.
  std::uint64_t ctrl_free_ns_ = 0;
  std::vector<std::uint64_t> slot_free_ns_;
  /// Completion times of requests still occupying a queue tag — at most
  /// queue_depth() requests may be outstanding, so a new command waits for
  /// the earliest completion when the queue is full. Makes depth-1 async
  /// bit-identical in time to the synchronous path.
  std::vector<std::uint64_t> outstanding_ns_;
  /// Clock reset hook: ctrl/slot/outstanding times are absolute virtual
  /// nanoseconds and must zero with the clock between bench repetitions.
  util::SimClock::ResetHookId reset_hook_ = 0;
};

}  // namespace mobiceal::blockdev
