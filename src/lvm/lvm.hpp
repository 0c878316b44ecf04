// Logical Volume Manager reproduction (Sec. II-C, Fig. 1).
//
// MobiCeal's userdata partition is initialised with LVM: the partition
// becomes a physical volume, joins a volume group, and two logical volumes
// are carved out of it — the thin pool's metadata device and data device.
// We reproduce the PV / VG / LV model with extent-based allocation; an LV is
// a BlockDevice composed of extents (internally dm-linear segments).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "blockdev/block_device.hpp"

namespace mobiceal::lvm {

/// Default LVM extent: 4 MiB, i.e. 1024 blocks of 4 KiB.
inline constexpr std::uint64_t kDefaultExtentBlocks = 1024;

/// A physical volume: a block device divided into fixed-size extents.
class PhysicalVolume {
 public:
  PhysicalVolume(std::string name, std::shared_ptr<blockdev::BlockDevice> dev,
                 std::uint64_t extent_blocks = kDefaultExtentBlocks);

  const std::string& name() const noexcept { return name_; }
  std::uint64_t extent_blocks() const noexcept { return extent_blocks_; }
  std::uint64_t num_extents() const noexcept { return num_extents_; }
  std::uint64_t free_extents() const noexcept;

  std::shared_ptr<blockdev::BlockDevice> device() const noexcept {
    return dev_;
  }

  /// Allocates `count` extents; returns their indices.
  /// Throws util::NoSpaceError when insufficient.
  std::vector<std::uint64_t> allocate(std::uint64_t count);

  /// Returns extents to the free pool.
  void release(const std::vector<std::uint64_t>& extents);

 private:
  std::string name_;
  std::shared_ptr<blockdev::BlockDevice> dev_;
  std::uint64_t extent_blocks_;
  std::uint64_t num_extents_;
  std::vector<bool> used_;
};

/// A logical volume: an ordered list of (PV, extent) segments presented as
/// one contiguous BlockDevice.
class LogicalVolume final : public blockdev::BlockDevice {
 public:
  struct Segment {
    std::shared_ptr<PhysicalVolume> pv;
    std::uint64_t extent;
  };

  LogicalVolume(std::string name, std::vector<Segment> segments,
                std::uint64_t extent_blocks);

  const std::string& name() const noexcept { return name_; }

  std::size_t block_size() const noexcept override;
  std::uint64_t num_blocks() const noexcept override;
  void flush() override;

  const std::vector<Segment>& segments() const noexcept { return segments_; }

  /// LVs forward the queue-depth hint to the device(s) beneath them.
  std::uint32_t queue_depth() const noexcept override;
  void set_queue_depth(std::uint32_t depth) override;
  std::uint64_t completion_cutoff() const noexcept override;

 protected:
  /// Vectored I/O splits at extent-segment boundaries only where the
  /// physical mapping is discontiguous — adjacent extents that happen to
  /// be physically consecutive (the common first-fit case) stay one
  /// request to the PV device.
  void do_read_blocks(std::uint64_t first, std::uint64_t count,
                      util::MutByteSpan out) override;
  void do_write_blocks(std::uint64_t first, util::ByteSpan data) override;

  /// Async submissions fan out per physically contiguous run; the LV's
  /// completion time is the latest sub-request completion.
  std::uint64_t do_submit(const blockdev::IoRequest& req) override;
  void do_drain() override;
  // do_wait_until keeps the base no-op: the partial barrier is not
  // forwarded, like dm::LinearTarget's (docs/ARCHITECTURE.md, Known model
  // gaps).

 private:
  /// Maps an LV block to (device, physical block).
  std::pair<blockdev::BlockDevice*, std::uint64_t> map(
      std::uint64_t index) const;

  /// Calls fn once per distinct PV device, in first-segment order.
  void for_each_device(
      const std::function<void(blockdev::BlockDevice&)>& fn) const;

  /// Calls fn(dev, phys_first, run_blocks, byte_offset) for each maximal
  /// physically contiguous run of [first, first+count).
  void for_each_phys_run(
      std::uint64_t first, std::uint64_t count,
      const std::function<void(blockdev::BlockDevice&, std::uint64_t,
                               std::uint64_t, std::size_t)>& fn) const;

  std::string name_;
  std::vector<Segment> segments_;
  std::uint64_t extent_blocks_;
};

/// A volume group: a pool of PVs from which LVs are allocated.
class VolumeGroup {
 public:
  explicit VolumeGroup(std::string name) : name_(std::move(name)) {}

  const std::string& name() const noexcept { return name_; }

  void add_pv(std::shared_ptr<PhysicalVolume> pv);

  /// Creates an LV of at least `blocks` blocks (rounded up to whole
  /// extents). Throws util::NoSpaceError when the VG is exhausted.
  std::shared_ptr<LogicalVolume> create_lv(const std::string& name,
                                           std::uint64_t blocks);

  /// Removes an LV and releases its extents.
  void remove_lv(const std::string& name);

  std::shared_ptr<LogicalVolume> get_lv(const std::string& name) const;
  bool has_lv(const std::string& name) const noexcept;

  std::uint64_t free_extents() const noexcept;
  std::uint64_t extent_blocks() const noexcept;

 private:
  std::string name_;
  std::vector<std::shared_ptr<PhysicalVolume>> pvs_;
  std::map<std::string, std::shared_ptr<LogicalVolume>> lvs_;
};

}  // namespace mobiceal::lvm
