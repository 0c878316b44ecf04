#include "dm/device_mapper.hpp"

#include "util/error.hpp"

namespace mobiceal::dm {

void DeviceMapper::create(const std::string& name,
                          std::shared_ptr<blockdev::BlockDevice> dev) {
  if (!dev) throw util::IoError("dm create: null device for " + name);
  const auto [it, inserted] = table_.emplace(name, std::move(dev));
  (void)it;
  if (!inserted) throw util::IoError("dm create: name taken: " + name);
}

void DeviceMapper::remove(const std::string& name) {
  if (table_.erase(name) == 0) {
    throw util::IoError("dm remove: no such device: " + name);
  }
}

std::shared_ptr<blockdev::BlockDevice> DeviceMapper::get(
    const std::string& name) const {
  const auto it = table_.find(name);
  if (it == table_.end()) {
    throw util::IoError("dm get: no such device: " + name);
  }
  return it->second;
}

bool DeviceMapper::exists(const std::string& name) const noexcept {
  return table_.count(name) != 0;
}

LinearTarget::LinearTarget(std::shared_ptr<blockdev::BlockDevice> lower,
                           std::uint64_t start_block, std::uint64_t num_blocks)
    : ForwardingDevice(std::move(lower)),
      start_(start_block),
      num_blocks_(num_blocks) {
  if (start_ + num_blocks_ > inner()->num_blocks()) {
    throw util::IoError("dm-linear: region exceeds lower device");
  }
}

void LinearTarget::do_read_blocks(std::uint64_t first, std::uint64_t count,
                                  util::MutByteSpan out) {
  inner()->read_blocks(start_ + first, count, out);
}

void LinearTarget::do_write_blocks(std::uint64_t first, util::ByteSpan data) {
  inner()->write_blocks(start_ + first, data);
}

std::uint64_t LinearTarget::do_submit(const blockdev::IoRequest& req) {
  blockdev::IoRequest fwd = req;
  if (fwd.op != blockdev::IoOp::kFlush) fwd.first += start_;
  return inner()->submit(fwd).complete_ns;
}

}  // namespace mobiceal::dm
