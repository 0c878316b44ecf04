#include "cache/cache_target.hpp"

#include <cstring>

#include "fs/run_coalescer.hpp"
#include "util/error.hpp"

namespace mobiceal::cache {

CacheTarget::CacheTarget(std::shared_ptr<blockdev::BlockDevice> lower,
                         CacheConfig config,
                         std::shared_ptr<util::SimClock> clock)
    : ForwardingDevice(std::move(lower)),
      config_(config),
      clock_(std::move(clock)) {
  if (config_.capacity_blocks == 0) {
    throw util::PolicyError("cache: capacity must be > 0 (use cache::wrap "
                            "for an optional cache)");
  }
  entries_.reserve(static_cast<std::size_t>(config_.capacity_blocks));
  if (config_.flusher.enabled) {
    if (clock_) {
      // A bench-repetition clock reset must forget the pending deadline or
      // the first dirty block of the next repetition inherits ghost age.
      reset_hook_ = clock_->add_reset_hook([this] {
        have_first_dirty_ = false;
        first_dirty_ns_ = 0;
      });
      have_reset_hook_ = true;
    }
    flusher_thread_ = std::thread([this] { flusher_main(); });
  }
}

CacheTarget::~CacheTarget() {
  // Normal teardown order syncs the filesystem (and thus this cache) first;
  // this is a last-resort net for exceptional unwinds, so it must not throw.
  try {
    flush_dirty();
  } catch (...) {  // NOLINT(bugprone-empty-catch)
  }
  if (flusher_thread_.joinable()) {
    {
      util::MutexLock lock(flusher_mu_);
      flusher_exit_ = true;
      flusher_cv_.notify_all();
    }
    flusher_thread_.join();
  }
  if (have_reset_hook_ && clock_) clock_->remove_reset_hook(reset_hook_);
}

void CacheTarget::flusher_main() {
  for (;;) {
    {
      util::MutexLock lock(flusher_mu_);
      while (!flusher_busy_ && !flusher_exit_) flusher_cv_.wait(flusher_mu_);
      if (!flusher_busy_) return;  // exit requested, nothing handed off
    }
    // The foreground handed us the whole stack: it will not touch cache or
    // lower-device state until join_flusher() observes !flusher_busy_, so
    // the writeback below needs no further locking.
    std::exception_ptr err;
    try {
      write_back_dirty(/*background=*/true);
    } catch (...) {
      err = std::current_exception();
    }
    util::MutexLock lock(flusher_mu_);
    if (err && !flusher_error_) flusher_error_ = err;
    flusher_busy_ = false;
    flusher_cv_.notify_all();
    if (flusher_exit_) return;
  }
}

void CacheTarget::join_flusher() {
  if (!flusher_thread_.joinable()) return;
  std::exception_ptr err;
  {
    util::MutexLock lock(flusher_mu_);
    while (flusher_busy_) flusher_cv_.wait(flusher_mu_);
    err = flusher_error_;
    flusher_error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

void CacheTarget::maybe_kick_flusher() {
  if (!config_.flusher.enabled || dirty_fifo_.empty()) return;
  const bool ratio_hit =
      dirty_fifo_.size() * 100 >=
      config_.capacity_blocks * config_.flusher.dirty_ratio_pct;
  const bool deadline_hit =
      clock_ && have_first_dirty_ &&
      clock_->now() >= first_dirty_ns_ + config_.flusher.deadline_ns;
  if (!ratio_hit && !deadline_hit) return;
  ++counters_.flusher_batches;
  util::MutexLock lock(flusher_mu_);
  flusher_busy_ = true;
  flusher_cv_.notify_all();
}

void CacheTarget::charge_copy(std::uint64_t blocks) {
  if (clock_ && config_.copy_ns_per_block > 0) {
    clock_->advance(blocks * config_.copy_ns_per_block);
  }
}

void CacheTarget::touch(
    std::unordered_map<std::uint64_t, Entry>::iterator it) {
  if (it->second.lru_pos != lru_.begin()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  }
}

void CacheTarget::evict_for_capacity() {
  if (entries_.size() < config_.capacity_blocks) return;
  const std::uint64_t victim = lru_.back();
  auto it = entries_.find(victim);
  if (it->second.dirty) {
    // Rule 2 (header comment): individual dirty evictions could reorder
    // writeback against first-dirty order, so eviction pressure flushes the
    // whole dirty set as one epoch before the victim is dropped.
    flush_dirty();
    ++counters_.epochs;
  }
  lru_.pop_back();
  entries_.erase(victim);
  ++counters_.evictions;
}

std::unordered_map<std::uint64_t, CacheTarget::Entry>::iterator
CacheTarget::ensure_entry(std::uint64_t block, bool* inserted) {
  auto it = entries_.find(block);
  if (it != entries_.end()) {
    *inserted = false;
    touch(it);
    return it;
  }
  evict_for_capacity();
  lru_.push_front(block);
  Entry e;
  e.data.resize(block_size());
  e.lru_pos = lru_.begin();
  *inserted = true;
  return entries_.emplace(block, std::move(e)).first;
}

void CacheTarget::flush_dirty() {
  join_flusher();
  write_back_dirty(/*background=*/false);
}

void CacheTarget::write_back_dirty(bool background) {
  if (dirty_fifo_.empty()) return;
  const std::size_t bs = block_size();
  stage_.resize(dirty_fifo_.size() * bs);

  // First-dirty order with contiguity coalescing — byte-for-byte the runs
  // fs::RunCoalescer emits for the same block sequence (cache_test pins
  // this equivalence). Deep queues split each run into pipeline segments
  // submitted back-to-back so their transfer (and crypt) phases overlap;
  // at depth 1 a run goes out as one synchronous vectored write, keeping
  // the lower layers' batched fast paths. Final content is identical
  // either way — the engine moves data at submit time.
  const bool async = inner()->queue_depth() > 1;
  fs::RunCoalescer runs(bs, [&](std::uint64_t run_first, std::uint64_t blocks,
                                std::size_t buf_offset) {
    ++counters_.writeback_runs;
    const util::ByteSpan run{stage_.data() + buf_offset,
                             static_cast<std::size_t>(blocks) * bs};
    if (background || async) {
      // Segments go out back-to-back so their transfer phases overlap.
      // Deadline-driven (background) writeback does this at any depth and
      // never barriers the queue: foreground traffic issued after the join
      // overlaps the tail of this batch on the virtual timeline.
      blockdev::submit_write_segments(*inner(), run_first, run);
    } else {
      inner()->write_blocks(run_first, run);
    }
  });
  std::size_t off = 0;
  for (const std::uint64_t block : dirty_fifo_) {
    std::memcpy(stage_.data() + off, entries_.at(block).data.data(), bs);
    runs.push(block, off);
    off += bs;
  }
  runs.flush();
  if (background) {
    // Reap whatever already finished; the rest stays in flight until the
    // next barrier (fs sync / drain).
    inner()->poll_completions();
  } else if (async) {
    inner()->drain();
  }
  // Bookkeeping only clears after every run landed: if a lower layer threw
  // mid-flush (say NoSpaceError from the thin pool), the set stays dirty
  // and the next flush retries instead of silently serving RAM-only data.
  counters_.writeback_blocks += dirty_fifo_.size();
  for (const std::uint64_t block : dirty_fifo_) {
    entries_.at(block).dirty = false;
  }
  dirty_fifo_.clear();
  have_first_dirty_ = false;
}

void CacheTarget::do_read_blocks(std::uint64_t first, std::uint64_t count,
                                 util::MutByteSpan out) {
  join_flusher();
  const std::size_t bs = block_size();
  // Miss runs are fetched read-through: one vectored async submission per
  // contiguous missing range, directly into the caller's buffer, then the
  // batch drains and the blocks are installed in the cache.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> miss_runs;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t block = first + i;
    auto it = entries_.find(block);
    if (it != entries_.end()) {
      std::memcpy(out.data() + i * bs, it->second.data.data(), bs);
      touch(it);
      ++counters_.hits;
      charge_copy(1);
      continue;
    }
    ++counters_.misses;
    if (!miss_runs.empty() &&
        miss_runs.back().first + miss_runs.back().second == block) {
      ++miss_runs.back().second;
    } else {
      miss_runs.emplace_back(block, 1);
    }
  }
  if (miss_runs.empty()) return;

  // Same submission strategy as flush_dirty: pipeline segments at depth,
  // the lower layers' synchronous vectored fast path at queue depth 1.
  const bool async = inner()->queue_depth() > 1;
  for (const auto& [run_first, run_count] : miss_runs) {
    ++counters_.fill_reads;
    util::MutByteSpan dst{out.data() + (run_first - first) * bs,
                          static_cast<std::size_t>(run_count) * bs};
    if (async) {
      blockdev::submit_read_segments(*inner(), run_first, dst);
    } else {
      inner()->read_blocks(run_first, run_count, dst);
    }
  }
  if (async) inner()->drain();

  for (const auto& [run_first, run_count] : miss_runs) {
    for (std::uint64_t i = 0; i < run_count; ++i) {
      bool inserted = false;
      auto it = ensure_entry(run_first + i, &inserted);
      std::memcpy(it->second.data.data(),
                  out.data() + (run_first + i - first) * bs, bs);
      charge_copy(1);
    }
  }
}

void CacheTarget::do_write_blocks(std::uint64_t first, util::ByteSpan data) {
  join_flusher();
  const std::size_t bs = block_size();
  const std::uint64_t count = data.size() / bs;

  if (config_.policy == WritePolicy::kWritethrough) {
    // Exact lower write sequence preserved: one vectored pass-through.
    // Only blocks already resident are refreshed — streaming writes do not
    // flood the read cache.
    inner()->write_blocks(first, data);
    for (std::uint64_t i = 0; i < count; ++i) {
      auto it = entries_.find(first + i);
      if (it == entries_.end()) continue;
      std::memcpy(it->second.data.data(), data.data() + i * bs, bs);
      touch(it);
      charge_copy(1);
    }
    return;
  }

  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t block = first + i;
    bool inserted = false;
    auto it = ensure_entry(block, &inserted);
    std::memcpy(it->second.data.data(), data.data() + i * bs, bs);
    if (!it->second.dirty) {
      it->second.dirty = true;
      if (dirty_fifo_.empty()) {
        first_dirty_ns_ = clock_ ? clock_->now() : 0;
        have_first_dirty_ = true;
      }
      dirty_fifo_.push_back(block);
    }
    charge_copy(1);
  }
  maybe_kick_flusher();
}

void CacheTarget::flush() {
  flush_dirty();
  inner()->flush();
}

void CacheTarget::do_drain() {
  flush_dirty();
  inner()->drain();
}

void CacheTarget::do_wait_until(std::uint64_t cutoff) {
  join_flusher();
  inner()->wait_until(cutoff);
}

std::shared_ptr<blockdev::BlockDevice> wrap(
    std::shared_ptr<blockdev::BlockDevice> lower, const CacheConfig& config,
    std::shared_ptr<util::SimClock> clock) {
  if (config.capacity_blocks == 0) return lower;
  return std::make_shared<CacheTarget>(std::move(lower), config,
                                       std::move(clock));
}

}  // namespace mobiceal::cache
