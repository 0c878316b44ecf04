// Block device abstraction — the bottom of the storage stack.
//
// Mirrors the Linux block layer contract the paper's implementation sits on:
// an eMMC card exposed through the FTL as a linear array of fixed-size
// blocks (Sec. III-A). Every layer above (dm-crypt, dm-thin, filesystems)
// talks to this interface, and the multi-snapshot adversary images devices
// through snapshot() exactly as a border agent images a phone.
//
// The FTL itself can be modelled explicitly: ftl::FtlDevice (src/ftl/) is a
// BlockDevice whose *implementation* is a page-mapped flash medium — out-of-
// place writes over erase blocks, greedy GC, wear counters, asymmetric
// read/program/erase timing charged to the virtual clock (GC triggered by a
// write folds into that write's service time, so the async contract below
// holds unchanged; a clock reset also clears its serial flash channel).
// Everything above sees the same linear-array contract; what changes is what
// an adversary can image. snapshot() remains the *block-level* primitive —
// the logical array, what `dd` over /dev/block sees. FtlDevice additionally
// exposes snapshot_raw_flash(), the below-the-interface analogue: the
// physical medium (data pages + per-page OOB mapping records + erase
// counters) that a chip-off or custom-firmware attacker reads, which is
// strictly more revealing — stale superseded copies and program order
// survive there after the logical view has forgotten them (see
// src/adversary/ftl_attacks.hpp and docs/ADVERSARY.md).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace mobiceal::blockdev {

/// Linux sector size; dm-crypt IVs are computed per 512-byte sector.
inline constexpr std::size_t kSectorSize = 512;

/// Default block (page) size for device I/O; matches the 4 KiB pages the
/// Android kernel issues to eMMC.
inline constexpr std::size_t kDefaultBlockSize = 4096;

// -- implementing a device ---------------------------------------------------
//
// A device carries two data hooks, and only two:
//
//  * the vectored hooks do_read_blocks/do_write_blocks (pure virtual) —
//    the synchronous path. read_block/write_block are non-virtual shims
//    that validate, then issue a one-block vectored call, so a layer has
//    exactly one synchronous body and a one-block request cannot drift
//    from a longer one;
//  * do_submit — the async path. The default shim runs the request
//    through the vectored hooks and completes it at time 0; timed devices
//    and wrappers that forward submissions downward override it.
//
// Wrappers over exactly one lower device derive from ForwardingDevice
// (below), which forwards geometry, flush, queue depth, the completion
// cutoff and all five protected hooks unchanged; a wrapper overrides only
// the hooks it actually changes. Layers that own their queue model
// (TimedDevice, ftl::FtlDevice) or fan out to several lower devices
// (striping, mirroring, LVM, thin volumes) derive from BlockDevice.

// -- async submit/complete engine ---------------------------------------------
//
// io_uring-shaped: callers queue IoRequests with submit() and reap
// IoCompletions with poll_completions()/drain(). Data movement is performed
// at submit time (the simulation has no real DMA), so device *state* is
// identical to the synchronous paths by construction; what the engine models
// is *service time*: TimedDevice keeps up to queue_depth() requests in
// flight on the virtual clock, and wrappers (dm-linear, LVM, thin volumes,
// dm-crypt) forward submissions downward so the overlap happens where the
// paper's hardware provides it — at the eMMC controller.
//
// Contract (the sync shim, spelled out):
//
//  1. submit() validates exactly like the synchronous entry points, then
//     moves data inline: a submitted write is visible to any read — sync or
//     async — the moment submit() returns, and a submitted read's buffer is
//     already filled. Completions therefore carry no data, only *time*.
//  2. A device without a service-time model (MemBlockDevice, FileBlockDevice,
//     untimed wrappers) executes do_submit through the default shim: the
//     request runs through the vectored hooks and completes at virtual time
//     0 ("already done"). Such devices report completion_cutoff() == +inf,
//     so poll_completions() reaps everything instantly and drain()/
//     wait_until() are pure reaps.
//  3. On a timed device, completions become visible to poll_completions()
//     once the device clock reaches their complete_ns. drain() is the full
//     barrier (advance past ALL in-flight work); wait_until(cutoff) is the
//     partial barrier (advance the clock to at most `cutoff`, reap only what
//     finished by then, leave the rest in flight). Synchronous read/write
//     calls on a timed device drain implicitly before servicing.
//  4. Tickets are assigned in submission order and completions are reaped
//     sorted by (complete_ns, ticket) — a total order independent of which
//     thread submitted, which is what keeps multi-threaded submitters
//     (per-stripe workers, the background cache flusher) deterministic.

enum class IoOp : std::uint8_t { kRead, kWrite, kFlush };

struct IoRequest {
  IoOp op = IoOp::kRead;
  std::uint64_t first = 0;  ///< first block (ignored for kFlush)
  std::uint64_t count = 0;  ///< blocks (ignored for kFlush)
  /// kRead destination; must hold count * block_size() bytes.
  util::MutByteSpan read_buf{};
  /// kWrite source; must hold count * block_size() bytes.
  util::ByteSpan write_buf{};
  /// Caller cookie, returned verbatim in the completion.
  std::uint64_t user_data = 0;
  /// Earliest virtual time (ns) the request may start service — the
  /// pipelining hook: dm-crypt sets it to the ciphertext-ready time so
  /// encryption of run N+1 overlaps the in-flight write of run N.
  std::uint64_t available_ns = 0;
};

struct IoCompletion {
  std::uint64_t ticket = 0;       ///< submission sequence number
  std::uint64_t user_data = 0;    ///< cookie from the request
  std::uint64_t complete_ns = 0;  ///< virtual completion time (0: untimed)
};

/// Result of BlockDevice::submit. `complete_ns` is the modelled virtual
/// completion time, available synchronously because service times are
/// analytic — upper layers use it to chain dependent work without waiting.
struct SubmitResult {
  std::uint64_t ticket = 0;
  std::uint64_t complete_ns = 0;
};

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  /// Fixed I/O unit in bytes (power of two, multiple of 512).
  virtual std::size_t block_size() const noexcept = 0;

  /// Device capacity in blocks.
  virtual std::uint64_t num_blocks() const noexcept = 0;

  /// Read one whole block. `out.size()` must equal block_size().
  /// Throws util::IoError on out-of-range access. A one-block vectored
  /// call: there is no separate per-block path to override.
  void read_block(std::uint64_t index, util::MutByteSpan out);

  /// Write one whole block. `data.size()` must equal block_size().
  void write_block(std::uint64_t index, util::ByteSpan data);

  /// Persist outstanding writes (a barrier for layered caches/metadata).
  virtual void flush() {}

  /// Capacity in bytes.
  std::uint64_t size_bytes() const noexcept {
    return num_blocks() * block_size();
  }

  // -- vectored I/O -----------------------------------------------------------
  //
  // Batched transfers are the bulk path of the stack (snapshots, random
  // fills, large sequential workloads). The public entry points validate
  // the whole range up front — a range or alignment error throws
  // util::IoError before any block is touched — then dispatch to the
  // do_*_blocks hooks (non-virtual interface: implementations can never
  // lose the validation). A lower-device fault mid-range may still leave
  // a prefix written, exactly as the kernel block layer may complete part
  // of a vectored request.

  /// Read `count` consecutive blocks starting at `first` into `out`
  /// (`out.size()` must equal `count * block_size()`).
  void read_blocks(std::uint64_t first, std::uint64_t count,
                   util::MutByteSpan out);

  /// Write a buffer spanning `data.size() / block_size()` consecutive
  /// blocks starting at `first`.
  void write_blocks(std::uint64_t first, util::ByteSpan data);

  /// Convenience: read `count` consecutive blocks into a fresh buffer.
  util::Bytes read_blocks(std::uint64_t first, std::uint64_t count);

  /// Full raw image of the device — the adversary's *block-level* snapshot
  /// primitive (the logical array this interface exports). Devices with
  /// state below the block interface expose their own physical-image hooks
  /// alongside it: ftl::FtlDevice::snapshot_raw_flash() returns the flash
  /// medium (pages + OOB + erase counters) including stale out-of-place
  /// copies that no read through this interface can reach.
  util::Bytes snapshot();

  // -- async submit/complete ---------------------------------------------------

  /// Queues a request. Validation (range/alignment) happens up front and
  /// throws util::IoError exactly like the synchronous entry points; the
  /// data movement itself happens before submit returns, so a submitted
  /// write is immediately visible to reads. The returned complete_ns is
  /// the modelled virtual completion time (0 on untimed devices).
  SubmitResult submit(const IoRequest& req);

  /// Reaps completions whose virtual completion time has been reached,
  /// sorted by (complete_ns, ticket) — deterministic virtual-time order.
  /// Untimed devices complete everything instantly.
  std::vector<IoCompletion> poll_completions();

  /// Barrier: advances the virtual clock past every in-flight request and
  /// reaps all remaining completions. The async analogue of flush-level
  /// ordering; synchronous I/O issued while requests are in flight drains
  /// implicitly on timed devices.
  std::vector<IoCompletion> drain();

  /// Partial barrier: waits (on the virtual timeline) until `cutoff` and
  /// reaps completions at or before it. Unlike drain(), requests completing
  /// after `cutoff` stay in flight and the device clock advances to at most
  /// `cutoff` — background workers (the cache flusher) and sharded-clock
  /// sync wrappers use this to close a *specific* request's timeline
  /// without serialising behind unrelated in-flight traffic.
  std::vector<IoCompletion> wait_until(std::uint64_t cutoff);

  /// Advisory number of requests the device keeps in flight (NCQ-style).
  /// Wrapper targets forward to their lower device; TimedDevice models it
  /// on the virtual clock. Depth 1 (the default) preserves the historical
  /// fully-serial service model bit-for-bit.
  virtual std::uint32_t queue_depth() const noexcept { return queue_depth_; }

  /// Sets the advertised queue depth (clamped to >= 1).
  virtual void set_queue_depth(std::uint32_t depth);

  /// Virtual time cutoff for poll_completions: completions at or before
  /// this instant are ready. Untimed devices report everything complete;
  /// TimedDevice reports its clock; wrapper targets forward to their
  /// lower device so polling through any layer honours the timeline.
  virtual std::uint64_t completion_cutoff() const noexcept;

 protected:
  /// Submission hook: performs the operation and returns its virtual
  /// completion time. The default shim services the request synchronously
  /// through the vectored hooks (completion time 0 — "already done").
  virtual std::uint64_t do_submit(const IoRequest& req);

  /// Drain hook: advance the clock past all in-flight work. Default no-op
  /// (the sync shim never leaves work in flight).
  virtual void do_drain() {}

  /// wait_until hook: advance the device clock to at most `cutoff`.
  /// Default no-op (untimed devices have nothing to wait for); TimedDevice
  /// advances its clock shard, wrapper targets forward downward.
  virtual void do_wait_until(std::uint64_t cutoff) { (void)cutoff; }
  /// Bounds/size validation shared by implementations.
  void check_io(std::uint64_t index, std::size_t len) const;

  /// Range validation for vectored I/O: [first, first+count) in range and
  /// `len == count * block_size()`. Throws util::IoError.
  void check_range(std::uint64_t first, std::uint64_t count,
                   std::size_t len) const;

  /// Vectored-read hook, called with a validated range (count may be 1:
  /// read_block lands here too).
  virtual void do_read_blocks(std::uint64_t first, std::uint64_t count,
                              util::MutByteSpan out) = 0;

  /// Vectored-write hook, called with a validated range.
  virtual void do_write_blocks(std::uint64_t first, util::ByteSpan data) = 0;

 private:
  /// Removes and returns pending completions with complete_ns <= cutoff,
  /// sorted by (complete_ns, ticket).
  std::vector<IoCompletion> take_ready(std::uint64_t cutoff);

  std::uint32_t queue_depth_ = 1;
  std::uint64_t next_ticket_ = 1;
  std::vector<IoCompletion> pending_;
};

/// Base for wrappers over one lower device. Every public virtual and every
/// protected hook forwards to inner() unchanged, so a subclass overrides
/// only what it changes — and a wrapper that overrides nothing is byte-
/// and time-transparent on every path.
class ForwardingDevice : public BlockDevice {
 public:
  explicit ForwardingDevice(std::shared_ptr<BlockDevice> inner)
      : inner_(std::move(inner)) {}

  std::size_t block_size() const noexcept override {
    return inner_->block_size();
  }
  std::uint64_t num_blocks() const noexcept override {
    return inner_->num_blocks();
  }
  void flush() override { inner_->flush(); }
  std::uint32_t queue_depth() const noexcept override {
    return inner_->queue_depth();
  }
  void set_queue_depth(std::uint32_t depth) override {
    inner_->set_queue_depth(depth);
  }
  std::uint64_t completion_cutoff() const noexcept override {
    return inner_->completion_cutoff();
  }

  const std::shared_ptr<BlockDevice>& inner() const noexcept {
    return inner_;
  }

 protected:
  void do_read_blocks(std::uint64_t first, std::uint64_t count,
                      util::MutByteSpan out) override {
    inner_->read_blocks(first, count, out);
  }
  void do_write_blocks(std::uint64_t first, util::ByteSpan data) override {
    inner_->write_blocks(first, data);
  }
  std::uint64_t do_submit(const IoRequest& req) override {
    return inner_->submit(req).complete_ns;
  }
  void do_drain() override { inner_->drain(); }
  void do_wait_until(std::uint64_t cutoff) override {
    inner_->wait_until(cutoff);
  }

 private:
  std::shared_ptr<BlockDevice> inner_;
};

/// RAM-backed block device.
class MemBlockDevice final : public BlockDevice {
 public:
  /// Creates a zero-filled device of `num_blocks` blocks.
  MemBlockDevice(std::uint64_t num_blocks,
                 std::size_t block_size = kDefaultBlockSize);

  std::size_t block_size() const noexcept override { return block_size_; }
  std::uint64_t num_blocks() const noexcept override { return num_blocks_; }

  /// Direct access for test assertions (not part of the device contract).
  const util::Bytes& raw() const noexcept { return data_; }

 protected:
  /// Vectored I/O collapses to a single memcpy over the backing buffer.
  void do_read_blocks(std::uint64_t first, std::uint64_t count,
                      util::MutByteSpan out) override;
  void do_write_blocks(std::uint64_t first, util::ByteSpan data) override;

 private:
  std::uint64_t num_blocks_;
  std::size_t block_size_;
  util::Bytes data_;
};

/// Blocks per async submission segment used by the segmented-submit
/// helpers below (and mirrored by CryptTarget's pipeline): large runs
/// split so their transfer phases overlap under queue depth.
inline constexpr std::uint64_t kSubmitSegmentBlocks = 32;

/// Submits the read of blocks [first, first + buf.size()/block_size) in
/// kSubmitSegmentBlocks-sized segments that start no earlier than
/// `available_ns` (0 = immediately). Data lands in `buf` at submit time;
/// callers drain() (or poll) the device to complete the flight. Returns one
/// SubmitResult per segment, in submission order, so callers scheduling
/// dependent work know each segment's modelled completion time without a
/// drain().
std::vector<SubmitResult> submit_read_segments(BlockDevice& dev,
                                               std::uint64_t first,
                                               util::MutByteSpan buf,
                                               std::uint64_t available_ns = 0);

/// Write-side twin of submit_read_segments.
std::vector<SubmitResult> submit_write_segments(
    BlockDevice& dev, std::uint64_t first, util::ByteSpan buf,
    std::uint64_t available_ns = 0);

/// Fills blocks [first, first+count) with random noise, streamed through
/// the vectored write path in multi-block batches — the "fill the disk
/// with randomness" static defence shared by MobiPluto and Mobiflage.
void fill_random(BlockDevice& dev, std::uint64_t first, std::uint64_t count,
                 util::Rng& rng);

/// File-backed block device (POSIX pread/pwrite), for large images that
/// should not live in RAM and for inspecting artifacts with external tools.
class FileBlockDevice final : public BlockDevice {
 public:
  /// Creates or opens `path` and sizes it to num_blocks * block_size.
  FileBlockDevice(const std::string& path, std::uint64_t num_blocks,
                  std::size_t block_size = kDefaultBlockSize);
  ~FileBlockDevice() override;

  FileBlockDevice(const FileBlockDevice&) = delete;
  FileBlockDevice& operator=(const FileBlockDevice&) = delete;

  std::size_t block_size() const noexcept override { return block_size_; }
  std::uint64_t num_blocks() const noexcept override { return num_blocks_; }

  void flush() override;

 protected:
  /// Vectored I/O becomes a single pread/pwrite.
  void do_read_blocks(std::uint64_t first, std::uint64_t count,
                      util::MutByteSpan out) override;
  void do_write_blocks(std::uint64_t first, util::ByteSpan data) override;

 private:
  std::uint64_t num_blocks_;
  std::size_t block_size_;
  int fd_ = -1;
};

}  // namespace mobiceal::blockdev
