#include "blockdev/fault_injector.hpp"

namespace mobiceal::blockdev {

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)),
      rng_(plan_.seed),
      write_budget_(plan_.write_budget_blocks) {
  util::MutexLock lock(mu_);
  latent_.insert(plan_.latent_bad_blocks.begin(),
                 plan_.latent_bad_blocks.end());
  if (plan_.drop_after_requests == 0) dead_ = true;
}

bool FaultInjector::range_hits_latent_locked(std::uint64_t first,
                                             std::uint64_t count) const {
  // std::set is ordered: the first element >= `first` is the only candidate
  // that can fall inside [first, first + count).
  const auto it = latent_.lower_bound(first);
  return it != latent_.end() && *it < first + count;
}

void FaultInjector::on_read(std::uint64_t first, std::uint64_t count) {
  util::MutexLock lock(mu_);
  if (dead_) throw MemberDead();
  if (plan_.drop_after_requests > 0 &&
      ++requests_ > plan_.drop_after_requests) {
    dead_ = true;
    throw MemberDead();
  }
  if (range_hits_latent_locked(first, count)) {
    ++latent_faults_;
    throw ReadFault(*latent_.lower_bound(first));
  }
  // Draw only when the plan asks for transient faults, so enabling the
  // other fault classes never shifts the RNG sequence.
  if (plan_.transient_read_ppm > 0 &&
      rng_.next_below(1'000'000) < plan_.transient_read_ppm) {
    ++transient_faults_;
    throw ReadFault(first);
  }
}

std::uint64_t FaultInjector::on_write(std::uint64_t first,
                                      std::uint64_t count) {
  util::MutexLock lock(mu_);
  if (dead_) throw MemberDead();
  if (plan_.drop_after_requests > 0 &&
      ++requests_ > plan_.drop_after_requests) {
    dead_ = true;
    throw MemberDead();
  }
  std::uint64_t ok = count;
  if (write_budget_ >= 0) {
    if (count <= static_cast<std::uint64_t>(write_budget_)) {
      write_budget_ -= static_cast<std::int64_t>(count);
    } else {
      ok = static_cast<std::uint64_t>(write_budget_);
      write_budget_ = -1;  // one crash per arming
    }
  }
  // A rewrite clears any pending (latent-bad) sector it covers.
  auto it = latent_.lower_bound(first);
  while (it != latent_.end() && *it < first + ok) {
    it = latent_.erase(it);
    ++healed_;
  }
  return ok;
}

void FaultInjector::on_flush() {
  util::MutexLock lock(mu_);
  if (dead_) throw MemberDead();
  if (plan_.power_cut_at_flush > 0 &&
      ++flushes_ == plan_.power_cut_at_flush) {
    // The barrier never completes; everything written before it is already
    // on the medium (data moves at submit/write time in this simulation).
    dead_ = true;
    throw PowerCut();
  }
}

void FaultInjector::drop_now() {
  util::MutexLock lock(mu_);
  dead_ = true;
}

void FaultInjector::rearm_write_budget(std::int64_t blocks) {
  util::MutexLock lock(mu_);
  write_budget_ = blocks;
}

std::int64_t FaultInjector::write_budget() const {
  util::MutexLock lock(mu_);
  return write_budget_;
}

bool FaultInjector::dead() const {
  util::MutexLock lock(mu_);
  return dead_;
}

std::uint64_t FaultInjector::latent_bad_count() const {
  util::MutexLock lock(mu_);
  return latent_.size();
}

std::uint64_t FaultInjector::transient_faults() const {
  util::MutexLock lock(mu_);
  return transient_faults_;
}

std::uint64_t FaultInjector::latent_faults() const {
  util::MutexLock lock(mu_);
  return latent_faults_;
}

std::uint64_t FaultInjector::healed_blocks() const {
  util::MutexLock lock(mu_);
  return healed_;
}

}  // namespace mobiceal::blockdev
