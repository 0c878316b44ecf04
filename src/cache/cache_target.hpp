// Writeback block cache between the filesystems and the crypt layer.
//
// Every fs operation on the uncached stack pays the full crypt + thin-pool +
// timed-device path even when it re-reads the same blocks; bench_batch_io's
// per-block-vs-batched delta measures that headroom. CacheTarget is a
// device-mapper-style wrapper (the dm-cache analogue) that sits directly
// under a mounted filesystem and over dm-crypt: a block-indexed cache with
// read-through fill, LRU eviction, and a configurable write policy.
//
// Deniability is a first-class requirement, not an afterthought (Chen et
// al., "Block-based Mobile PDE Systems Are Not Secure"): the cache must not
// perturb what a multi-snapshot adversary observes on flash. Two rules make
// the flushed cached stack bit-identical to the uncached one:
//
//   1. Dirty blocks are written back in FIRST-DIRTY (FIFO) order, never in
//      LRU or address order. Layers below allocate-on-first-write (the thin
//      pool draws its random chunk placement, and the dummy-write engine
//      draws its burst decisions, from a shared RNG *in allocation order*),
//      so replaying first-touch order replays the exact RNG sequence of the
//      uncached stack. Within that order, physically contiguous neighbours
//      still coalesce into vectored runs — exactly the runs
//      fs::RunCoalescer would emit for the same sequence — because
//      coalescing adjacent writes never reorders first-touch.
//   2. When any dirty block must be evicted, the whole dirty set flushes
//      (one "writeback epoch") before the victim is dropped, so eviction
//      pressure can never reorder individual dirty blocks against rule 1.
//
// Dummy/noise writes bypass the cache entirely by construction: they are
// issued below the fs mount (straight into the thin pool), while CacheTarget
// only ever wraps the per-mount crypt device.
//
// Flush-outs ride the PR 3 async engine: each coalesced dirty run is issued
// as one vectored submit() to the lower device and the runs drain together,
// so writeback overlaps under queue depth exactly like any other vectored
// batch. Schemes whose translation layer is write-order- or write-count-
// sensitive (DEFY's log, HIVE's ORAM — combining two writes into one changes
// their physical trace) advertise that via the Capabilities bitset and get
// the cache in writethrough mode instead, which preserves the exact lower
// write sequence while still serving re-reads from RAM.
#pragma once

#include <cstdint>
#include <exception>
#include <list>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "blockdev/block_device.hpp"
#include "util/sim_clock.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace mobiceal::cache {

enum class WritePolicy : std::uint8_t {
  /// Writes update the cache and pass through to the lower device
  /// immediately (exact lower write sequence preserved).
  kWritethrough,
  /// Writes are absorbed by the cache and flushed as coalesced vectored
  /// runs on flush()/drain()/eviction pressure, in first-dirty order.
  kWriteback,
};

/// Background-writeback policy (the kupdate/dirty-ratio analogue). When
/// enabled, a real worker thread writes the dirty set back whenever the
/// dirty ratio or the age of the oldest dirty block crosses a threshold,
/// riding poll_completions()/wait-free submission instead of a full
/// drain() barrier. The worker only ever runs while the foreground is
/// *outside* the cache (every entry point joins it first), so the flushed
/// image stays bit-identical to the synchronous first-dirty writeback —
/// batches are staged in the same global FIFO order.
struct FlusherPolicy {
  bool enabled = false;
  /// Kick the worker once dirty blocks reach this percentage of capacity.
  std::uint32_t dirty_ratio_pct = 50;
  /// ... or once the oldest dirty block is this old on the virtual clock
  /// (needs a clock; ignored on untimed stacks).
  std::uint64_t deadline_ns = 10'000'000;

  bool operator==(const FlusherPolicy&) const = default;
};

struct CacheConfig {
  /// Cache capacity in blocks. 0 disables the cache (wrap() returns the
  /// lower device unchanged).
  std::uint64_t capacity_blocks = 0;
  WritePolicy policy = WritePolicy::kWriteback;
  /// CPU cost of moving one block between the cache and the caller
  /// (page-cache memcpy, ~20 GB/s for 4 KiB blocks), charged to the shared
  /// SimClock so cache hits are fast but never free on the virtual
  /// timeline.
  std::uint64_t copy_ns_per_block = 200;
  /// Background flusher; disabled by default (bit- and time-identical to
  /// the historical synchronous writeback).
  FlusherPolicy flusher;
};

/// Running counters, exposed for tests and bench_cache.
struct CacheCounters {
  std::uint64_t hits = 0;             ///< blocks served from the cache
  std::uint64_t misses = 0;           ///< blocks fetched from below
  std::uint64_t fill_reads = 0;       ///< read-through fill requests issued
  std::uint64_t writeback_blocks = 0; ///< dirty blocks written back
  std::uint64_t writeback_runs = 0;   ///< vectored runs those coalesced into
  std::uint64_t evictions = 0;        ///< entries dropped for capacity
  std::uint64_t epochs = 0;           ///< dirty-set flushes forced by eviction
  std::uint64_t flusher_batches = 0;  ///< writebacks handed to the worker
};

class CacheTarget final : public blockdev::ForwardingDevice {
 public:
  /// `clock` may be null (no copy cost charged — untimed test stacks).
  CacheTarget(std::shared_ptr<blockdev::BlockDevice> lower, CacheConfig config,
              std::shared_ptr<util::SimClock> clock = nullptr);

  /// Best-effort flush of surviving dirty blocks; never throws.
  ~CacheTarget() override;

  /// Barrier: writes back the dirty set (coalesced, async) and forwards the
  /// flush to the lower device.
  void flush() override;

  const CacheConfig& config() const noexcept { return config_; }
  const CacheCounters& counters() const noexcept { return counters_; }
  std::uint64_t cached_blocks() const noexcept { return entries_.size(); }
  std::uint64_t dirty_blocks() const noexcept { return dirty_fifo_.size(); }

 protected:
  /// Vectored paths: hits copy from RAM, misses fetch whole missing runs
  /// through one submit() each and fill the cache on the way.
  void do_read_blocks(std::uint64_t first, std::uint64_t count,
                      util::MutByteSpan out) override;
  void do_write_blocks(std::uint64_t first, util::ByteSpan data) override;

  /// Submissions take the base shim, i.e. the cached vectored paths above
  /// (a flush request runs flush()): the cache has no queue of its own,
  /// and forwarding a submission would bypass it.
  std::uint64_t do_submit(const blockdev::IoRequest& req) override {
    return BlockDevice::do_submit(req);
  }

  /// Drain is the async barrier: dirty set flushes first, then the lower
  /// device drains.
  void do_drain() override;
  void do_wait_until(std::uint64_t cutoff) override;

 private:
  struct Entry {
    util::Bytes data;
    bool dirty = false;
    /// Position in lru_ (front = most recently used).
    std::list<std::uint64_t>::iterator lru_pos;
  };

  /// Moves `block` to the MRU position.
  void touch(std::unordered_map<std::uint64_t, Entry>::iterator it);

  /// Returns the entry for `block`, inserting a fresh one (evicting for
  /// capacity first) when absent. The returned entry's data buffer is
  /// sized but unspecified for fresh inserts; `inserted` reports which.
  std::unordered_map<std::uint64_t, Entry>::iterator ensure_entry(
      std::uint64_t block, bool* inserted);

  /// Makes room for one more entry: flushes the dirty set when the LRU
  /// victim is dirty (a writeback epoch), then drops the victim.
  void evict_for_capacity();

  /// Writes back all dirty blocks in first-dirty order, coalescing
  /// physically contiguous neighbours into vectored submit() runs, then
  /// drains the lower device so the batch completes as one overlapped
  /// flight. Clears the dirty set. Joins the background worker first.
  void flush_dirty();

  /// The shared writeback body. Foreground (`background == false`) keeps
  /// the historical semantics: submit runs, then a full lower drain().
  /// Background keeps the lower queue open: segment submission plus
  /// a poll_completions() reap, so traffic issued after the handoff
  /// overlaps the writeback on the virtual timeline.
  void write_back_dirty(bool background);

  /// Blocks until the worker is idle and rethrows any stored worker error.
  /// Every foreground entry point calls this before touching cache state —
  /// the join discipline that gives the worker exclusive access to the
  /// whole lower stack while it runs.
  void join_flusher() EXCLUDES(flusher_mu_);

  /// Hands the (frozen) dirty set to the worker when the dirty-ratio or
  /// oldest-dirty deadline trips. Caller must not touch cache or lower
  /// state again before join_flusher().
  void maybe_kick_flusher() EXCLUDES(flusher_mu_);

  /// Worker thread main loop.
  void flusher_main() EXCLUDES(flusher_mu_);

  void charge_copy(std::uint64_t blocks);

  CacheConfig config_;
  std::shared_ptr<util::SimClock> clock_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  /// LRU order; front = most recently used.
  std::list<std::uint64_t> lru_;
  /// Dirty blocks in first-dirty order — the writeback replay order.
  std::vector<std::uint64_t> dirty_fifo_;
  CacheCounters counters_;
  /// Staging buffer reused by flush_dirty (no per-flush allocation churn).
  util::Bytes stage_;

  // -- background flusher ------------------------------------------------------
  util::Mutex flusher_mu_;
  util::CondVar flusher_cv_;
  /// Worker owns the cache + lower stack while true; foreground waits.
  bool flusher_busy_ GUARDED_BY(flusher_mu_) = false;
  bool flusher_exit_ GUARDED_BY(flusher_mu_) = false;
  /// First error thrown by a background writeback, rethrown at the next
  /// join (the foreground write that would have seen it synchronously).
  std::exception_ptr flusher_error_ GUARDED_BY(flusher_mu_);
  std::thread flusher_thread_;
  /// Virtual timestamp of the oldest dirty block (deadline trigger).
  std::uint64_t first_dirty_ns_ = 0;
  bool have_first_dirty_ = false;
  util::SimClock::ResetHookId reset_hook_ = 0;
  bool have_reset_hook_ = false;
};

/// Wraps `lower` in a CacheTarget when the config enables one
/// (capacity_blocks > 0); returns `lower` unchanged otherwise. The single
/// stack-builder entry point, so "cache off" stacks are structurally
/// identical to pre-cache ones.
std::shared_ptr<blockdev::BlockDevice> wrap(
    std::shared_ptr<blockdev::BlockDevice> lower, const CacheConfig& config,
    std::shared_ptr<util::SimClock> clock = nullptr);

}  // namespace mobiceal::cache
