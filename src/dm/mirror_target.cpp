#include "dm/mirror_target.hpp"

#include <algorithm>
#include <exception>

#include "blockdev/fault_injector.hpp"
#include "util/error.hpp"

namespace mobiceal::dm {

MirrorTarget::MirrorTarget(
    std::vector<std::shared_ptr<blockdev::BlockDevice>> members) {
  if (members.empty()) {
    throw util::PolicyError("mirror: need at least one member");
  }
  block_size_ = members.front()->block_size();
  num_blocks_ = members.front()->num_blocks();
  for (const auto& m : members) {
    if (!m) throw util::PolicyError("mirror: null member");
    if (m->block_size() != block_size_ || m->num_blocks() != num_blocks_) {
      throw util::PolicyError("mirror: member geometries differ");
    }
  }
  util::MutexLock lock(mu_);
  members_.reserve(members.size());
  for (auto& m : members) members_.push_back({std::move(m), false});
}

std::vector<std::uint32_t> MirrorTarget::live_locked() const {
  std::vector<std::uint32_t> live;
  live.reserve(members_.size());
  for (std::uint32_t i = 0; i < members_.size(); ++i) {
    if (!members_[i].failed) live.push_back(i);
  }
  return live;
}

std::uint64_t MirrorTarget::read_locked(std::uint64_t first,
                                        std::uint64_t count,
                                        util::MutByteSpan out,
                                        std::uint64_t available_ns,
                                        bool sync) {
  std::exception_ptr last;
  // Transient faults are retryable by definition, so a round in which every
  // member answered ReadFault (possible once fault rates are non-trivial)
  // is retried with fresh draws rather than surfaced — md behaves the same
  // way. Three rounds bound the work; the odds of three full transient
  // wipeouts in a row are negligible at any configured fault rate.
  for (int round = 0; round < 3; ++round) {
    const std::vector<std::uint32_t> live = live_locked();
    if (live.empty()) break;
    const std::size_t start = static_cast<std::size_t>(rr_++ % live.size());
    std::vector<std::uint32_t> faulted;  // retryable faults, repair targets
    bool retryable = false;
    for (std::size_t a = 0; a < live.size(); ++a) {
      const std::uint32_t m = live[(start + a) % live.size()];
      blockdev::IoRequest req;
      req.op = blockdev::IoOp::kRead;
      req.first = first;
      req.count = count;
      req.read_buf = out;
      req.available_ns = available_ns;
      try {
        const std::uint64_t done = members_[m].dev->submit(req).complete_ns;
        if (sync) members_[m].dev->drain();
        if (a > 0 || round > 0) {
          ++failovers_;
          repair_locked(faulted, first, {out.data(), out.size()});
        }
        return done;
      } catch (const blockdev::ReadFault&) {
        // Transient/latent media error: the member stays; a peer serves
        // the read and we repair the sector afterwards.
        faulted.push_back(m);
        retryable = true;
        last = std::current_exception();
      } catch (const util::IoError&) {
        members_[m].failed = true;
        last = std::current_exception();
      }
    }
    if (!retryable) break;  // every failure was fatal: retrying cannot help
  }
  if (last) std::rethrow_exception(last);
  throw util::IoError("mirror: no live members to read from");
}

void MirrorTarget::repair_locked(const std::vector<std::uint32_t>& faulted,
                                 std::uint64_t first, util::ByteSpan data) {
  for (const std::uint32_t m : faulted) {
    if (members_[m].failed) continue;
    blockdev::IoRequest req;
    req.op = blockdev::IoOp::kWrite;
    req.first = first;
    req.count = data.size() / block_size_;
    req.write_buf = data;
    try {
      members_[m].dev->submit(req);
      ++repaired_ranges_;
    } catch (const util::IoError&) {
      members_[m].failed = true;
    }
  }
}

std::uint64_t MirrorTarget::write_locked(const blockdev::IoRequest& req,
                                         bool sync) {
  const std::vector<std::uint32_t> live = live_locked();
  if (live.empty()) {
    // Fail closed BEFORE any data moves: with redundancy exhausted an
    // acknowledged write could never be read back.
    throw util::IoError("mirror: redundancy exhausted, failing write closed");
  }
  std::uint64_t done = 0;
  bool any_ok = false;
  std::exception_ptr last;
  for (const std::uint32_t m : live) {
    try {
      done = std::max(done, members_[m].dev->submit(req).complete_ns);
      any_ok = true;
    } catch (const util::IoError&) {
      members_[m].failed = true;
      last = std::current_exception();
    }
  }
  if (!any_ok) std::rethrow_exception(last);
  // Keep the rebuilt prefix of the spare current: writes below the
  // watermark land on the spare too, so promotion needs no second pass.
  if (spare_ && req.first < watermark_) {
    blockdev::IoRequest sub = req;
    sub.count = std::min(req.count, watermark_ - req.first);
    sub.write_buf = req.write_buf.first(
        static_cast<std::size_t>(sub.count) * block_size_);
    try {
      spare_->submit(sub);
    } catch (const util::IoError&) {
      abort_rebuild_locked();
    }
  }
  if (sync) {
    for (const std::uint32_t m : live) {
      if (!members_[m].failed) members_[m].dev->drain();
    }
  }
  return done;
}

std::uint64_t MirrorTarget::flush_locked(bool sync) {
  const std::vector<std::uint32_t> live = live_locked();
  if (live.empty()) {
    throw util::IoError("mirror: no live members to flush");
  }
  blockdev::IoRequest req;
  req.op = blockdev::IoOp::kFlush;
  std::uint64_t done = 0;
  bool any_ok = false;
  std::exception_ptr last;
  for (const std::uint32_t m : live) {
    try {
      done = std::max(done, members_[m].dev->submit(req).complete_ns);
      any_ok = true;
    } catch (const util::IoError&) {
      // The member missed a barrier: its contents are no longer trusted.
      members_[m].failed = true;
      last = std::current_exception();
    }
  }
  if (spare_) {
    try {
      spare_->submit(req);
    } catch (const util::IoError&) {
      abort_rebuild_locked();
    }
  }
  if (sync) {
    for (const std::uint32_t m : live) {
      if (!members_[m].failed) members_[m].dev->drain();
    }
    if (spare_) spare_->drain();
  }
  // The barrier is durable if ANY in-sync member completed it — that is
  // what redundancy buys. All members failing it is a failed flush.
  if (!any_ok) std::rethrow_exception(last);
  return done;
}

void MirrorTarget::do_read_blocks(std::uint64_t first, std::uint64_t count,
                                  util::MutByteSpan out) {
  util::MutexLock lock(mu_);
  read_locked(first, count, out, 0, /*sync=*/true);
}

void MirrorTarget::do_write_blocks(std::uint64_t first, util::ByteSpan data) {
  blockdev::IoRequest req;
  req.op = blockdev::IoOp::kWrite;
  req.first = first;
  req.count = data.size() / block_size_;
  req.write_buf = data;
  util::MutexLock lock(mu_);
  write_locked(req, /*sync=*/true);
}

std::uint64_t MirrorTarget::do_submit(const blockdev::IoRequest& req) {
  util::MutexLock lock(mu_);
  switch (req.op) {
    case blockdev::IoOp::kRead:
      return read_locked(req.first, req.count, req.read_buf,
                         req.available_ns, /*sync=*/false);
    case blockdev::IoOp::kWrite:
      return write_locked(req, /*sync=*/false);
    case blockdev::IoOp::kFlush:
      return flush_locked(/*sync=*/false);
  }
  return 0;
}

void MirrorTarget::flush() {
  util::MutexLock lock(mu_);
  flush_locked(/*sync=*/true);
}

void MirrorTarget::do_drain() {
  util::MutexLock lock(mu_);
  for (const auto& m : members_) {
    if (!m.failed) m.dev->drain();
  }
  if (spare_) spare_->drain();
}

void MirrorTarget::do_wait_until(std::uint64_t cutoff) {
  util::MutexLock lock(mu_);
  for (const auto& m : members_) {
    if (!m.failed) m.dev->wait_until(cutoff);
  }
  if (spare_) spare_->wait_until(cutoff);
}

std::uint32_t MirrorTarget::queue_depth() const noexcept {
  util::MutexLock lock(mu_);
  return members_.front().dev->queue_depth();
}

void MirrorTarget::set_queue_depth(std::uint32_t depth) {
  util::MutexLock lock(mu_);
  for (const auto& m : members_) m.dev->set_queue_depth(depth);
  if (spare_) spare_->set_queue_depth(depth);
}

std::uint64_t MirrorTarget::completion_cutoff() const noexcept {
  util::MutexLock lock(mu_);
  std::uint64_t cutoff = 0;
  bool any = false;
  for (const auto& m : members_) {
    if (m.failed) continue;
    const std::uint64_t c = m.dev->completion_cutoff();
    cutoff = any ? std::min(cutoff, c) : c;
    any = true;
  }
  return any ? cutoff : members_.front().dev->completion_cutoff();
}

std::uint32_t MirrorTarget::member_count() const {
  util::MutexLock lock(mu_);
  return static_cast<std::uint32_t>(members_.size());
}

std::uint32_t MirrorTarget::live_members() const {
  util::MutexLock lock(mu_);
  return static_cast<std::uint32_t>(live_locked().size());
}

void MirrorTarget::fail_member(std::uint32_t index) {
  util::MutexLock lock(mu_);
  if (index >= members_.size()) {
    throw util::PolicyError("mirror: fail_member index out of range");
  }
  members_[index].failed = true;
}

const std::shared_ptr<blockdev::BlockDevice>& MirrorTarget::member(
    std::uint32_t index) const {
  util::MutexLock lock(mu_);
  if (index >= members_.size()) {
    throw util::PolicyError("mirror: member index out of range");
  }
  return members_[index].dev;
}

std::uint64_t MirrorTarget::failovers() const {
  util::MutexLock lock(mu_);
  return failovers_;
}

std::uint64_t MirrorTarget::repaired_ranges() const {
  util::MutexLock lock(mu_);
  return repaired_ranges_;
}

void MirrorTarget::attach_spare(std::shared_ptr<blockdev::BlockDevice> spare,
                                std::uint64_t resume_watermark) {
  util::MutexLock lock(mu_);
  if (!spare) throw util::PolicyError("mirror: null spare");
  if (spare_) {
    throw util::PolicyError("mirror: a rebuild is already in progress");
  }
  if (spare->block_size() != block_size_ ||
      spare->num_blocks() != num_blocks_) {
    throw util::PolicyError("mirror: spare geometry differs");
  }
  if (resume_watermark > num_blocks_) {
    throw util::PolicyError("mirror: resume watermark beyond device end");
  }
  spare_ = std::move(spare);
  watermark_ = resume_watermark;
}

std::uint64_t MirrorTarget::rebuild_step(std::uint64_t max_blocks) {
  util::MutexLock lock(mu_);
  if (!spare_ || max_blocks == 0) return 0;
  const std::uint64_t n = std::min(max_blocks, num_blocks_ - watermark_);
  if (n == 0) {
    promote_locked();
    return 0;
  }
  rebuild_staging_.resize(static_cast<std::size_t>(n) * block_size_);
  // Source read with the normal failover path; its completion time gates
  // the spare write (available_ns), so copy read and copy write overlap
  // foreground traffic on the virtual timeline instead of serialising it.
  const std::uint64_t ready =
      read_locked(watermark_, n, rebuild_staging_, 0, /*sync=*/false);
  blockdev::IoRequest w;
  w.op = blockdev::IoOp::kWrite;
  w.first = watermark_;
  w.count = n;
  w.write_buf = rebuild_staging_;
  w.available_ns = ready;
  try {
    spare_->submit(w);
  } catch (const util::IoError&) {
    abort_rebuild_locked();
    throw;
  }
  watermark_ += n;
  rebuilt_blocks_ += n;
  if (watermark_ == num_blocks_) promote_locked();
  return n;
}

bool MirrorTarget::rebuilding() const {
  util::MutexLock lock(mu_);
  return spare_ != nullptr;
}

std::uint64_t MirrorTarget::rebuild_watermark() const {
  util::MutexLock lock(mu_);
  return watermark_;
}

std::uint64_t MirrorTarget::rebuilt_blocks() const {
  util::MutexLock lock(mu_);
  return rebuilt_blocks_;
}

std::uint32_t MirrorTarget::rebuilds_completed() const {
  util::MutexLock lock(mu_);
  return rebuilds_completed_;
}

void MirrorTarget::abort_rebuild_locked() {
  spare_.reset();
  watermark_ = 0;
}

void MirrorTarget::promote_locked() {
  if (!spare_) return;
  spare_->drain();  // close the copy timeline before the spare serves reads
  members_.push_back({std::move(spare_), false});
  spare_.reset();
  watermark_ = 0;
  ++rebuilds_completed_;
}

}  // namespace mobiceal::dm
