// RecordingDevice — the one I/O recorder, for tests and I/O-amplification
// measurements.
//
// It logs every command that reaches it, in arrival order, as (op, first,
// count, path), then forwards the command unchanged: a vectored call stays
// ONE vectored command on the inner device and a submission reaches the
// inner queue-depth engine, so the recorder is byte- and time-transparent.
// read_block/write_block arrive as one-block vectored calls. Commit-ordering
// tests (dm-thin must write the superblock last, after a barrier, so a crash
// can never expose half a transaction) read the log directly; amplification
// measurements (metadata write blow-up in the DEFY baseline) read blocks().
// Fault injection lives in blockdev/fault_injector.hpp.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "blockdev/block_device.hpp"

namespace mobiceal::blockdev {

/// One recorded device command.
struct DeviceOp {
  IoOp op = IoOp::kRead;
  std::uint64_t first = 0;  ///< first block (ignored for kFlush)
  std::uint64_t count = 0;  ///< blocks (ignored for kFlush)
  bool submitted = false;   ///< async submit path, else synchronous
};

class RecordingDevice final : public ForwardingDevice {
 public:
  using ForwardingDevice::ForwardingDevice;

  void flush() override {
    ops_.push_back({IoOp::kFlush});
    ForwardingDevice::flush();
  }

  const std::vector<DeviceOp>& ops() const noexcept { return ops_; }
  void clear() noexcept { ops_.clear(); }

  /// Commands of kind `op` in the log.
  std::uint64_t commands(IoOp op) const noexcept {
    std::uint64_t n = 0;
    for (const DeviceOp& d : ops_) n += d.op == op ? 1 : 0;
    return n;
  }
  /// Blocks moved by reads or writes (`op`).
  std::uint64_t blocks(IoOp op) const noexcept {
    std::uint64_t n = 0;
    for (const DeviceOp& d : ops_) n += d.op == op ? d.count : 0;
    return n;
  }

 protected:
  void do_read_blocks(std::uint64_t first, std::uint64_t count,
                      util::MutByteSpan out) override {
    ops_.push_back({IoOp::kRead, first, count});
    ForwardingDevice::do_read_blocks(first, count, out);
  }
  void do_write_blocks(std::uint64_t first, util::ByteSpan data) override {
    ops_.push_back({IoOp::kWrite, first, data.size() / block_size()});
    ForwardingDevice::do_write_blocks(first, data);
  }
  std::uint64_t do_submit(const IoRequest& req) override {
    ops_.push_back({req.op, req.first, req.count, true});
    return ForwardingDevice::do_submit(req);
  }

 private:
  std::vector<DeviceOp> ops_;
};

}  // namespace mobiceal::blockdev
