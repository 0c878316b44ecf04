#include "lvm/lvm.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace mobiceal::lvm {

PhysicalVolume::PhysicalVolume(std::string name,
                               std::shared_ptr<blockdev::BlockDevice> dev,
                               std::uint64_t extent_blocks)
    : name_(std::move(name)),
      dev_(std::move(dev)),
      extent_blocks_(extent_blocks),
      num_extents_(dev_->num_blocks() / extent_blocks),
      used_(num_extents_, false) {
  if (num_extents_ == 0) {
    throw util::IoError("pvcreate: device smaller than one extent");
  }
}

std::uint64_t PhysicalVolume::free_extents() const noexcept {
  return static_cast<std::uint64_t>(
      std::count(used_.begin(), used_.end(), false));
}

std::vector<std::uint64_t> PhysicalVolume::allocate(std::uint64_t count) {
  std::vector<std::uint64_t> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < num_extents_ && out.size() < count; ++i) {
    if (!used_[i]) {
      used_[i] = true;
      out.push_back(i);
    }
  }
  if (out.size() < count) {
    release(out);
    throw util::NoSpaceError("pv " + name_ + ": not enough free extents");
  }
  return out;
}

void PhysicalVolume::release(const std::vector<std::uint64_t>& extents) {
  for (std::uint64_t e : extents) {
    if (e >= num_extents_) {
      throw util::IoError("pv release: extent out of range");
    }
    used_[e] = false;
  }
}

LogicalVolume::LogicalVolume(std::string name, std::vector<Segment> segments,
                             std::uint64_t extent_blocks)
    : name_(std::move(name)),
      segments_(std::move(segments)),
      extent_blocks_(extent_blocks) {
  if (segments_.empty()) throw util::IoError("lv with no segments");
}

std::size_t LogicalVolume::block_size() const noexcept {
  return segments_.front().pv->device()->block_size();
}

std::uint64_t LogicalVolume::num_blocks() const noexcept {
  return segments_.size() * extent_blocks_;
}

std::pair<blockdev::BlockDevice*, std::uint64_t> LogicalVolume::map(
    std::uint64_t index) const {
  const std::uint64_t seg = index / extent_blocks_;
  const std::uint64_t off = index % extent_blocks_;
  const Segment& s = segments_[seg];
  return {s.pv->device().get(), s.extent * extent_blocks_ + off};
}

void LogicalVolume::for_each_phys_run(
    std::uint64_t first, std::uint64_t count,
    const std::function<void(blockdev::BlockDevice&, std::uint64_t,
                             std::uint64_t, std::size_t)>& fn) const {
  const std::size_t bs = block_size();
  std::uint64_t pos = first;
  std::uint64_t remaining = count;
  blockdev::BlockDevice* run_dev = nullptr;
  std::uint64_t run_phys = 0, run_blocks = 0;
  std::size_t run_off = 0;
  while (remaining > 0) {
    const auto [dev, phys] = map(pos);
    const std::uint64_t in_seg =
        std::min(extent_blocks_ - pos % extent_blocks_, remaining);
    if (run_dev == dev && run_phys + run_blocks == phys) {
      run_blocks += in_seg;  // physically consecutive: extend the run
    } else {
      if (run_dev != nullptr) fn(*run_dev, run_phys, run_blocks, run_off);
      run_dev = dev;
      run_phys = phys;
      run_blocks = in_seg;
      run_off = static_cast<std::size_t>(pos - first) * bs;
    }
    pos += in_seg;
    remaining -= in_seg;
  }
  if (run_dev != nullptr) fn(*run_dev, run_phys, run_blocks, run_off);
}

void LogicalVolume::do_read_blocks(std::uint64_t first, std::uint64_t count,
                                   util::MutByteSpan out) {
  const std::size_t bs = block_size();
  for_each_phys_run(first, count,
                    [&](blockdev::BlockDevice& dev, std::uint64_t phys,
                        std::uint64_t blocks, std::size_t off) {
                      dev.read_blocks(
                          phys, blocks,
                          {out.data() + off,
                           static_cast<std::size_t>(blocks) * bs});
                    });
}

void LogicalVolume::do_write_blocks(std::uint64_t first, util::ByteSpan data) {
  const std::size_t bs = block_size();
  for_each_phys_run(first, data.size() / bs,
                    [&](blockdev::BlockDevice& dev, std::uint64_t phys,
                        std::uint64_t blocks, std::size_t off) {
                      dev.write_blocks(
                          phys, {data.data() + off,
                                 static_cast<std::size_t>(blocks) * bs});
                    });
}

std::uint64_t LogicalVolume::do_submit(const blockdev::IoRequest& req) {
  if (req.op == blockdev::IoOp::kFlush) {
    flush();
    return 0;
  }
  const std::size_t bs = block_size();
  std::uint64_t done = 0;
  for_each_phys_run(
      req.first, req.count,
      [&](blockdev::BlockDevice& dev, std::uint64_t phys,
          std::uint64_t blocks, std::size_t off) {
        blockdev::IoRequest sub = req;
        sub.first = phys;
        sub.count = blocks;
        if (req.op == blockdev::IoOp::kRead) {
          sub.read_buf = {req.read_buf.data() + off,
                          static_cast<std::size_t>(blocks) * bs};
        } else {
          sub.write_buf = {req.write_buf.data() + off,
                           static_cast<std::size_t>(blocks) * bs};
        }
        done = std::max(done, dev.submit(sub).complete_ns);
      });
  return done;
}

void LogicalVolume::for_each_device(
    const std::function<void(blockdev::BlockDevice&)>& fn) const {
  std::vector<blockdev::BlockDevice*> seen;
  for (const auto& s : segments_) {
    blockdev::BlockDevice* dev = s.pv->device().get();
    if (std::find(seen.begin(), seen.end(), dev) == seen.end()) {
      seen.push_back(dev);
      fn(*dev);
    }
  }
}

void LogicalVolume::do_drain() {
  for_each_device([](blockdev::BlockDevice& dev) { dev.drain(); });
}

std::uint32_t LogicalVolume::queue_depth() const noexcept {
  return segments_.front().pv->device()->queue_depth();
}

std::uint64_t LogicalVolume::completion_cutoff() const noexcept {
  return segments_.front().pv->device()->completion_cutoff();
}

void LogicalVolume::set_queue_depth(std::uint32_t depth) {
  for_each_device(
      [depth](blockdev::BlockDevice& dev) { dev.set_queue_depth(depth); });
}

void LogicalVolume::flush() {
  // One barrier per distinct underlying device, not per extent segment.
  for_each_device([](blockdev::BlockDevice& dev) { dev.flush(); });
}

void VolumeGroup::add_pv(std::shared_ptr<PhysicalVolume> pv) {
  if (!pvs_.empty() && pv->extent_blocks() != pvs_.front()->extent_blocks()) {
    throw util::IoError("vgextend: extent size mismatch");
  }
  pvs_.push_back(std::move(pv));
}

std::uint64_t VolumeGroup::extent_blocks() const noexcept {
  return pvs_.empty() ? 0 : pvs_.front()->extent_blocks();
}

std::shared_ptr<LogicalVolume> VolumeGroup::create_lv(const std::string& name,
                                                      std::uint64_t blocks) {
  if (pvs_.empty()) throw util::IoError("lvcreate: empty volume group");
  if (lvs_.count(name)) throw util::IoError("lvcreate: name taken: " + name);
  const std::uint64_t eb = extent_blocks();
  const std::uint64_t need = (blocks + eb - 1) / eb;
  if (need == 0) throw util::IoError("lvcreate: zero size");

  std::vector<LogicalVolume::Segment> segs;
  segs.reserve(need);
  std::uint64_t remaining = need;
  for (const auto& pv : pvs_) {
    if (remaining == 0) break;
    const std::uint64_t take = std::min(remaining, pv->free_extents());
    if (take == 0) continue;
    for (std::uint64_t e : pv->allocate(take)) {
      segs.push_back({pv, e});
    }
    remaining -= take;
  }
  if (remaining > 0) {
    // Roll back partial allocation.
    for (const auto& s : segs) s.pv->release({s.extent});
    throw util::NoSpaceError("vg " + name_ + ": not enough free extents");
  }
  auto lv = std::make_shared<LogicalVolume>(name, std::move(segs), eb);
  lvs_[name] = lv;
  return lv;
}

void VolumeGroup::remove_lv(const std::string& name) {
  const auto it = lvs_.find(name);
  if (it == lvs_.end()) throw util::IoError("lvremove: no such lv: " + name);
  for (const auto& s : it->second->segments()) s.pv->release({s.extent});
  lvs_.erase(it);
}

std::shared_ptr<LogicalVolume> VolumeGroup::get_lv(
    const std::string& name) const {
  const auto it = lvs_.find(name);
  if (it == lvs_.end()) throw util::IoError("no such lv: " + name);
  return it->second;
}

bool VolumeGroup::has_lv(const std::string& name) const noexcept {
  return lvs_.count(name) != 0;
}

std::uint64_t VolumeGroup::free_extents() const noexcept {
  std::uint64_t total = 0;
  for (const auto& pv : pvs_) total += pv->free_extents();
  return total;
}

}  // namespace mobiceal::lvm
