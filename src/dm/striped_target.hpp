// dm-stripe (RAID-0) — interleaves fixed-size chunks of a logical device
// round-robin across N equal backing devices, exactly as `dmsetup create
// striped` lays a thin pool's data device over several eMMC channels.
//
// Placement is a pure function of geometry: logical chunk c lives on stripe
// c % N at inner chunk c / N, so the striped layout is reconstructible from
// the backing images alone — the property the multi-snapshot deniability
// parity proofs in tests/striping_test.cpp rely on (an adversary imaging
// each backing device must see bit-identical content whether or not the
// stack was striped).
//
// Service model: each backing device keeps its own submit queue (its own
// command channel and transfer slots when it is a TimedDevice), so a
// vectored request crossing a stripe boundary is split into one vectored
// sub-run per stripe and the sub-runs overlap on the virtual timeline.
// With one stripe every path forwards verbatim: byte- and time-identical
// to the unstriped stack by construction.
#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "blockdev/block_device.hpp"
#include "util/clock_domain.hpp"

namespace mobiceal::crypto {
class CryptoWorkerPool;
}  // namespace mobiceal::crypto

namespace mobiceal::dm {

class StripedTarget final : public blockdev::BlockDevice {
 public:
  /// `stripes` must be non-empty, share one block size, and have equal
  /// capacities that are a multiple of `chunk_blocks` (> 0). Throws
  /// util::PolicyError on any geometry violation.
  StripedTarget(std::vector<std::shared_ptr<blockdev::BlockDevice>> stripes,
                std::uint32_t chunk_blocks);

  /// Sharded-clock variant: `domain` holds one SimClock shard per stripe
  /// (stripe i advances shard_for(i)); flush() re-merges the shards with a
  /// domain sync after the member barriers. When `submit_pool` has worker
  /// threads and the domain has > 1 shard, multi-stripe fan-outs are
  /// submitted by concurrent workers — safe because split_range yields at
  /// most one run per stripe (disjoint member state) and TimedDevice
  /// submission never advances its clock shard, and deterministic because
  /// each member timeline is a pure function of its own request sequence.
  /// A 1-shard domain (or null pool) behaves exactly like the first ctor.
  StripedTarget(std::vector<std::shared_ptr<blockdev::BlockDevice>> stripes,
                std::uint32_t chunk_blocks,
                std::shared_ptr<util::ClockDomain> domain,
                std::shared_ptr<crypto::CryptoWorkerPool> submit_pool =
                    nullptr);

  std::size_t block_size() const noexcept override {
    return stripes_.front()->block_size();
  }
  std::uint64_t num_blocks() const noexcept override { return num_blocks_; }

  /// Flush fans out: one flush per backing device, serviced in parallel
  /// through the submit queues (a real array flushes its members
  /// concurrently), then a barrier over all of them. Fails closed: every
  /// member's flush and drain is attempted even when one throws, and the
  /// first error is rethrown only after all members reached the barrier —
  /// never a partially acknowledged (or partially issued) barrier.
  void flush() override;

  std::uint32_t queue_depth() const noexcept override {
    return stripes_.front()->queue_depth();
  }
  void set_queue_depth(std::uint32_t depth) override;
  /// Minimum cutoff over the members: a completion is poll-ready only once
  /// every member timeline has reached it. With a shared clock (or a
  /// 1-shard domain) all members report the same instant, preserving the
  /// historical behaviour bit-for-bit.
  std::uint64_t completion_cutoff() const noexcept override {
    std::uint64_t cutoff = stripes_.front()->completion_cutoff();
    for (std::size_t i = 1; i < stripes_.size(); ++i) {
      cutoff = std::min(cutoff, stripes_[i]->completion_cutoff());
    }
    return cutoff;
  }

  // -- geometry (tests, image reconstruction) ---------------------------------

  std::uint32_t stripe_count() const noexcept {
    return static_cast<std::uint32_t>(stripes_.size());
  }
  std::uint32_t chunk_blocks() const noexcept { return chunk_blocks_; }
  const std::shared_ptr<blockdev::BlockDevice>& stripe(
      std::uint32_t i) const {
    return stripes_.at(i);
  }

  struct Placement {
    std::uint32_t stripe = 0;
    std::uint64_t inner = 0;  ///< block index on that backing device
  };
  Placement place(std::uint64_t block) const noexcept;

  // -- fan-out counters (tests) -----------------------------------------------

  /// Requests (sync or submitted) that crossed a stripe boundary.
  std::uint64_t split_requests() const noexcept {
    return split_requests_.load(std::memory_order_relaxed);
  }
  /// Per-stripe sub-requests issued for vectored/submitted requests.
  std::uint64_t sub_requests() const noexcept {
    return sub_requests_.load(std::memory_order_relaxed);
  }

 protected:
  void do_read_blocks(std::uint64_t first, std::uint64_t count,
                      util::MutByteSpan out) override;
  void do_write_blocks(std::uint64_t first, util::ByteSpan data) override;

  /// Splits the request into per-stripe vectored sub-runs and submits each
  /// to its backing device (data moves at submit, as everywhere in the
  /// engine); returns the latest modelled completion time.
  std::uint64_t do_submit(const blockdev::IoRequest& req) override;
  void do_drain() override;
  void do_wait_until(std::uint64_t cutoff) override;

 private:
  /// One logically ordered buffer piece of a per-stripe sub-run.
  struct Piece {
    std::size_t buf_off = 0;  ///< byte offset into the caller's buffer
    std::size_t len = 0;      ///< bytes
  };
  /// A stripe's share of one request. The inner range is always contiguous
  /// (consecutive logical chunks of a stripe are consecutive inner chunks;
  /// partial chunks only occur at the range edges), while the caller-buffer
  /// pieces are strided by (stripe_count - 1) chunks.
  struct StripeRun {
    std::uint32_t stripe = 0;
    std::uint64_t inner_first = 0;
    std::uint64_t blocks = 0;
    std::vector<Piece> pieces;
  };

  /// Per-stripe decomposition of [first, first + count), non-empty runs
  /// only, ordered by first logical touch.
  std::vector<StripeRun> split_range(std::uint64_t first,
                                     std::uint64_t count) const;

  /// Shared fan-out for the vectored and submit paths. `involved` (optional)
  /// collects the stripes touched so sync callers can drain exactly those.
  std::uint64_t fan_out(const blockdev::IoRequest& req,
                        std::vector<std::uint32_t>* involved);

  /// True when fan-outs may be submitted from pool workers (sharded domain
  /// + threaded pool).
  bool parallel_submit() const noexcept;

  std::vector<std::shared_ptr<blockdev::BlockDevice>> stripes_;
  std::shared_ptr<util::ClockDomain> domain_;
  std::shared_ptr<crypto::CryptoWorkerPool> submit_pool_;
  std::uint32_t chunk_blocks_;
  std::uint64_t per_stripe_blocks_ = 0;
  std::uint64_t num_blocks_ = 0;
  std::atomic<std::uint64_t> split_requests_{0};
  std::atomic<std::uint64_t> sub_requests_{0};
};

}  // namespace mobiceal::dm
