// dm-mirror (RAID-1) — N-way replication of one logical device, the
// redundancy leg under each stripe of the degraded-operation stack.
//
// Service model, matching the StripedTarget idiom: writes fan out to every
// live member through the async submit path, so with identical member
// TimingModels on one clock shard a mirrored write costs the same virtual
// time as a single-leg write (the transfers overlap; completion is the max
// — with heterogeneous members the slowest gates the tail, the SSD+eMMC
// hybrid scenario). Reads round-robin across in-sync members, so a healthy
// 2-way mirror serves ~2x the read throughput of one member and a degraded
// mirror falls back to the surviving leg with correct virtual-clock timing.
//
// Fault handling (see blockdev/fault_injector.hpp for the fault classes):
//   * ReadFault (transient/latent) — the read fails over to a peer member;
//     the faulted member stays in the array and the mirror repairs the
//     sector by rewriting it from the served data (md's fix-read-error).
//   * MemberDead / any other member IoError — the member is kicked.
//     Writes and flushes fail closed only when NO live member carried
//     them; a barrier that reached at least one in-sync member is durable.
//
// Online rebuild: attach_spare() + rebuild_step() copy the image onto a
// spare through the async submit path while foreground I/O continues.
// Foreground writes below the copy watermark propagate to the spare, so
// [0, watermark) is always current; the spare joins the read set only when
// the copy completes (promotion). The watermark is the caller's checkpoint:
// after a crash, re-attach the spare with any persisted value <= the true
// progress and the re-copy is idempotent — replay never exposes a torn
// member, because an unpromoted spare is never read.
//
// Thread safety: all member/spare/watermark state is guarded by one
// util::Mutex, so a foreground writer and a rebuild driver may run on real
// threads (the TSan-run MirrorRebuild tests do); per-stripe mirrors have
// disjoint locks, preserving the striped parallel-submit path.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "blockdev/block_device.hpp"
#include "util/bytes.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace mobiceal::dm {

class MirrorTarget final : public blockdev::BlockDevice {
 public:
  /// `members` must be non-empty and share one geometry (block size and
  /// capacity). Throws util::PolicyError on any violation.
  explicit MirrorTarget(
      std::vector<std::shared_ptr<blockdev::BlockDevice>> members);

  std::size_t block_size() const noexcept override { return block_size_; }
  std::uint64_t num_blocks() const noexcept override { return num_blocks_; }

  /// Barrier on every live member (and the spare). Fails closed only when
  /// no live member completed it; a member whose flush fails is kicked.
  void flush() override;

  std::uint32_t queue_depth() const noexcept override;
  void set_queue_depth(std::uint32_t depth) override;
  std::uint64_t completion_cutoff() const noexcept override;

  // -- degraded-mode state ----------------------------------------------------

  std::uint32_t member_count() const;
  /// In-sync members still serving I/O.
  std::uint32_t live_members() const;
  bool degraded() const { return live_members() < member_count(); }
  /// Administrative kick (tests/bench control plane). Out-of-range is a
  /// util::PolicyError.
  void fail_member(std::uint32_t index);
  const std::shared_ptr<blockdev::BlockDevice>& member(
      std::uint32_t index) const;

  /// Reads that fell over to a peer after a member fault.
  std::uint64_t failovers() const;
  /// Latent sectors rewritten from a peer's copy after a read fault.
  std::uint64_t repaired_ranges() const;

  // -- online rebuild ---------------------------------------------------------

  /// Attaches a spare and (re)starts the copy from `resume_watermark` —
  /// 0 for a fresh rebuild, or a previously persisted checkpoint when
  /// replaying after a crash (any value <= the true progress is safe; the
  /// re-copy is idempotent). Geometry must match; throws util::PolicyError
  /// if a rebuild is already in progress.
  void attach_spare(std::shared_ptr<blockdev::BlockDevice> spare,
                    std::uint64_t resume_watermark = 0);

  /// Copies up to `max_blocks` from a live member onto the spare through
  /// the async submit path (read and spare-write overlap on the virtual
  /// timeline; no drain — foreground I/O continues around the copy).
  /// Advances the watermark and promotes the spare to a full member when
  /// the copy reaches the end. Returns blocks copied (0: no rebuild in
  /// progress or already complete). Throws if no live member can source
  /// the copy.
  std::uint64_t rebuild_step(std::uint64_t max_blocks);

  bool rebuilding() const;
  /// Copy progress in blocks — the checkpoint a caller persists.
  std::uint64_t rebuild_watermark() const;
  /// Blocks copied by rebuild_step over this target's lifetime.
  std::uint64_t rebuilt_blocks() const;
  /// Spares promoted to full members.
  std::uint32_t rebuilds_completed() const;

 protected:
  void do_read_blocks(std::uint64_t first, std::uint64_t count,
                      util::MutByteSpan out) override;
  void do_write_blocks(std::uint64_t first, util::ByteSpan data) override;
  std::uint64_t do_submit(const blockdev::IoRequest& req) override;
  void do_drain() override;
  void do_wait_until(std::uint64_t cutoff) override;

 private:
  struct Member {
    std::shared_ptr<blockdev::BlockDevice> dev;
    bool failed = false;
  };

  /// Indices of in-sync, un-kicked members.
  std::vector<std::uint32_t> live_locked() const REQUIRES(mu_);

  /// Serves a read with round-robin balancing and failover; returns the
  /// modelled completion time. `sync` drains the serving member.
  std::uint64_t read_locked(std::uint64_t first, std::uint64_t count,
                            util::MutByteSpan out, std::uint64_t available_ns,
                            bool sync) REQUIRES(mu_);

  /// Fans a write (or flush) out to every live member plus the spare's
  /// rebuilt prefix; fails closed when no member carried it. `sync` drains
  /// the members that took the request.
  std::uint64_t write_locked(const blockdev::IoRequest& req, bool sync)
      REQUIRES(mu_);
  std::uint64_t flush_locked(bool sync) REQUIRES(mu_);

  /// Rewrites served read data onto members that answered with a
  /// (retryable) ReadFault, healing latent sectors.
  void repair_locked(const std::vector<std::uint32_t>& faulted,
                     std::uint64_t first, util::ByteSpan data) REQUIRES(mu_);

  /// Drops the spare and resets the watermark (spare write failure).
  void abort_rebuild_locked() REQUIRES(mu_);
  void promote_locked() REQUIRES(mu_);

  mutable util::Mutex mu_;
  std::vector<Member> members_ GUARDED_BY(mu_);
  std::shared_ptr<blockdev::BlockDevice> spare_ GUARDED_BY(mu_);
  std::uint64_t watermark_ GUARDED_BY(mu_) = 0;
  std::uint64_t rr_ GUARDED_BY(mu_) = 0;  // read round-robin cursor
  util::Bytes rebuild_staging_ GUARDED_BY(mu_);
  std::uint64_t failovers_ GUARDED_BY(mu_) = 0;
  std::uint64_t repaired_ranges_ GUARDED_BY(mu_) = 0;
  std::uint64_t rebuilt_blocks_ GUARDED_BY(mu_) = 0;
  std::uint32_t rebuilds_completed_ GUARDED_BY(mu_) = 0;
  std::size_t block_size_ = 0;
  std::uint64_t num_blocks_ = 0;
};

}  // namespace mobiceal::dm
