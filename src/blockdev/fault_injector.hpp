// FaultInjector — programmable device-fault policy for the whole I/O
// surface of a BlockDevice. One fault model serves the commit-ordering
// crash tests and the degraded-operation stack (dm::MirrorTarget):
//
//   * write budget            — the device accepts N more written blocks,
//     then a write throws InjectedFault after landing the prefix that fits
//     (the kernel may complete part of a vectored request) — the crash-
//     replay tool of the thin-pool commit tests;
//   * transient read errors   — per-request probability (ppm), the media
//     soft errors a retry (on the same or a peer member) absorbs;
//   * latent bad sectors      — persistent read failures on chosen blocks
//     until the block is rewritten (the "pending sector" a scrub or a
//     mirror repair-on-read heals);
//   * whole-member drop       — the device disappears after N requests
//     (or immediately via drop_now()), as a dying eMMC does;
//   * power-cut-at-Nth-flush  — the Nth flush barrier never completes and
//     the member is dead afterwards; writes issued *before* the cut are
//     durable (data moves at submit time, the simulation's analogue of
//     "reached the medium").
//
// All decisions draw from a util::Xoshiro256 seeded by FaultPlan::seed —
// runs replay bit-for-bit (raw rand is lint-banned). Faults other than the
// write budget fire *before* the inner device is touched: a faulted request
// moves no data and charges no virtual time (it dies in the controller, not
// on the medium).
//
// FaultInjectedDevice wraps any BlockDevice and consults the injector on
// every entry point — vectored (which carries read_block/write_block) and
// the async submit path.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "blockdev/block_device.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace mobiceal::blockdev {

/// Transient or latent-sector read failure. Retryable: a mirror serves the
/// read from a peer member (and may repair the sector by rewriting it).
class ReadFault : public util::IoError {
 public:
  explicit ReadFault(std::uint64_t block)
      : util::IoError("injected read fault at block " +
                      std::to_string(block)),
        block_(block) {}
  std::uint64_t block() const noexcept { return block_; }

 private:
  std::uint64_t block_;
};

/// The member is gone (dropped, or dead after a power cut). Not retryable
/// on this device; redundancy layers mark the member failed.
class MemberDead : public util::IoError {
 public:
  MemberDead() : util::IoError("injected fault: member dropped") {}
};

/// Thrown when a FaultPlan write budget runs out.
class InjectedFault : public util::IoError {
 public:
  InjectedFault() : util::IoError("injected device fault") {}
};

/// Simulated power loss at a flush barrier: the barrier never completes,
/// the member is dead afterwards. Thrown exactly once; later operations
/// see MemberDead.
class PowerCut : public util::IoError {
 public:
  PowerCut() : util::IoError("injected fault: power cut at flush") {}
};

/// Declarative fault schedule, fixed at construction. Defaults are a
/// fault-free device, so wiring an injector with a default plan is
/// behaviour- and time-identical to no injector at all.
struct FaultPlan {
  /// Seed for the transient-fault draws (util::Xoshiro256).
  std::uint64_t seed = 1;
  /// Per-read-request transient failure probability, in parts per million.
  std::uint32_t transient_read_ppm = 0;
  /// Blocks that fail every read until rewritten (latent bad sectors).
  std::vector<std::uint64_t> latent_bad_blocks;
  /// Member drops dead after this many read/write requests (-1: never;
  /// 0: dead on arrival).
  std::int64_t drop_after_requests = -1;
  /// Power cut on the Nth flush, 1-based (-1: never).
  std::int64_t power_cut_at_flush = -1;
  /// Blocks that may be written before a write throws InjectedFault (-1:
  /// never). The fault disarms the budget until
  /// FaultInjector::rearm_write_budget() — one crash per arming, like a
  /// real power cut.
  std::int64_t write_budget_blocks = -1;
};

/// Shared, thread-safe fault state for one member device. Separate from the
/// device wrapper so tests and the degraded bench can poke it (drop_now,
/// counters) while the stack holds only BlockDevice pointers.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Gate a read of [first, first+count). Throws MemberDead, or ReadFault
  /// for a latent/transient failure. Counts one request.
  void on_read(std::uint64_t first, std::uint64_t count);

  /// Gate a write of [first, first+count). Throws MemberDead. Returns how
  /// many leading blocks may land: `count`, or fewer when the write budget
  /// runs out — the budget then disarms, and the caller lands that prefix
  /// and throws InjectedFault. Landing blocks heal any latent bad blocks
  /// they cover (rewrite clears the pending sector). Counts one request.
  std::uint64_t on_write(std::uint64_t first, std::uint64_t count);

  /// Gate a flush. Throws PowerCut on the scheduled barrier (then marks
  /// the member dead), MemberDead thereafter.
  void on_flush();

  /// Drops the member immediately (bench/test control plane).
  void drop_now();

  /// Re-arms the write budget: `blocks` more blocks may land (negative
  /// disarms).
  void rearm_write_budget(std::int64_t blocks);
  /// Blocks left before the budget fires (negative: disarmed).
  std::int64_t write_budget() const;

  bool dead() const;
  std::uint64_t latent_bad_count() const;

  // Fault counters (requests refused, not blocks).
  std::uint64_t transient_faults() const;
  std::uint64_t latent_faults() const;
  std::uint64_t healed_blocks() const;

 private:
  bool range_hits_latent_locked(std::uint64_t first, std::uint64_t count)
      const REQUIRES(mu_);

  mutable util::Mutex mu_;
  const FaultPlan plan_;
  util::Xoshiro256 rng_ GUARDED_BY(mu_);
  std::set<std::uint64_t> latent_ GUARDED_BY(mu_);
  bool dead_ GUARDED_BY(mu_) = false;
  std::int64_t requests_ GUARDED_BY(mu_) = 0;
  std::int64_t flushes_ GUARDED_BY(mu_) = 0;
  std::int64_t write_budget_ GUARDED_BY(mu_) = -1;
  std::uint64_t transient_faults_ GUARDED_BY(mu_) = 0;
  std::uint64_t latent_faults_ GUARDED_BY(mu_) = 0;
  std::uint64_t healed_ GUARDED_BY(mu_) = 0;
};

/// BlockDevice wrapper consulting a FaultInjector on every entry point.
/// Forwarding preserves the inner device's modelling: vectored calls stay
/// vectored (one command, one locality judgement) and submissions reach the
/// inner device's own queue-depth engine, so a fault-free plan is byte- and
/// time-identical to the bare inner device.
class FaultInjectedDevice final : public ForwardingDevice {
 public:
  FaultInjectedDevice(std::shared_ptr<BlockDevice> inner,
                      std::shared_ptr<FaultInjector> injector)
      : ForwardingDevice(std::move(inner)), injector_(std::move(injector)) {}

  void flush() override {
    injector_->on_flush();
    ForwardingDevice::flush();
  }

  const std::shared_ptr<FaultInjector>& injector() const noexcept {
    return injector_;
  }

 protected:
  void do_read_blocks(std::uint64_t first, std::uint64_t count,
                      util::MutByteSpan out) override {
    injector_->on_read(first, count);
    ForwardingDevice::do_read_blocks(first, count, out);
  }
  void do_write_blocks(std::uint64_t first, util::ByteSpan data) override {
    const std::uint64_t count = data.size() / block_size();
    const std::uint64_t ok = injector_->on_write(first, count);
    // A budget fault mid-range lands the surviving prefix, then fails.
    if (ok > 0 || ok == count) {
      ForwardingDevice::do_write_blocks(first, data.first(ok * block_size()));
    }
    if (ok != count) throw InjectedFault();
  }
  std::uint64_t do_submit(const IoRequest& req) override {
    switch (req.op) {
      case IoOp::kRead:
        injector_->on_read(req.first, req.count);
        break;
      case IoOp::kWrite: {
        const std::uint64_t ok = injector_->on_write(req.first, req.count);
        if (ok == req.count) break;
        // Budget fault mid-request: land the surviving prefix, then fail.
        if (ok > 0) {
          IoRequest prefix = req;
          prefix.count = ok;
          prefix.write_buf = req.write_buf.first(ok * block_size());
          ForwardingDevice::do_submit(prefix);
        }
        throw InjectedFault();
      }
      case IoOp::kFlush:
        injector_->on_flush();
        break;
    }
    return ForwardingDevice::do_submit(req);
  }

 private:
  std::shared_ptr<FaultInjector> injector_;
};

}  // namespace mobiceal::blockdev
