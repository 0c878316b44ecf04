// Device mapper framework — reproduction of the Linux dm core that both
// dm-crypt (Android FDE, Sec. II-A) and dm-thin (Sec. II-C) plug into.
//
// A target is itself a BlockDevice stacked over one or more lower devices,
// so arbitrary stacks compose exactly as `dmsetup` tables do on Android:
//   eMMC -> dm-thin pool -> thin volume -> dm-crypt -> ext4
#pragma once

#include <map>
#include <memory>
#include <string>

#include "blockdev/block_device.hpp"

namespace mobiceal::dm {

/// Named-device registry mirroring /dev/mapper. Vold-equivalent code creates
/// and tears down devices here during boot / mode switch.
class DeviceMapper {
 public:
  /// Registers `dev` under `name`. Throws util::IoError if taken.
  void create(const std::string& name,
              std::shared_ptr<blockdev::BlockDevice> dev);

  /// Removes a device (dmsetup remove). Throws if absent.
  void remove(const std::string& name);

  /// Looks up a device; throws util::IoError if absent.
  std::shared_ptr<blockdev::BlockDevice> get(const std::string& name) const;

  bool exists(const std::string& name) const noexcept;
  std::size_t count() const noexcept { return table_.size(); }

 private:
  std::map<std::string, std::shared_ptr<blockdev::BlockDevice>> table_;
};

/// dm-linear: maps a contiguous region [start, start+len) of a lower device
/// as a standalone device. LVM logical volumes are stacks of these.
class LinearTarget final : public blockdev::ForwardingDevice {
 public:
  LinearTarget(std::shared_ptr<blockdev::BlockDevice> lower,
               std::uint64_t start_block, std::uint64_t num_blocks);

  std::uint64_t num_blocks() const noexcept override { return num_blocks_; }

 protected:
  /// Vectored I/O stays vectored: one shifted request to the lower device.
  void do_read_blocks(std::uint64_t first, std::uint64_t count,
                      util::MutByteSpan out) override;
  void do_write_blocks(std::uint64_t first, util::ByteSpan data) override;

  /// Async submissions forward with the offset applied, preserving the
  /// modelled completion time.
  std::uint64_t do_submit(const blockdev::IoRequest& req) override;

  /// Deliberately NOT forwarded — a known model gap (docs/ARCHITECTURE.md,
  /// "Known model gaps"): the partial barrier stops here, so a sharded
  /// read barrier issued above never reaches the stripes below. Forwarding
  /// it here and in lvm::LogicalVolume would move the striped QD8 virtual
  /// timeline, a model change.
  void do_wait_until(std::uint64_t cutoff) override { (void)cutoff; }

 private:
  std::uint64_t start_;
  std::uint64_t num_blocks_;
};

}  // namespace mobiceal::dm
