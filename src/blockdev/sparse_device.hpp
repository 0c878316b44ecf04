// Sparse RAM-backed device: blocks materialise on first write, reads of
// untouched blocks return zeros. Lets us run workflows on phone-sized
// partitions (the paper's Nexus 4 has a ~13.7 GB userdata partition) without
// allocating phone-sized buffers — e.g. the Table II initialisation flows,
// which write only metadata.
#pragma once

#include <unordered_map>

#include "blockdev/block_device.hpp"

namespace mobiceal::blockdev {

class SparseBlockDevice final : public BlockDevice {
 public:
  SparseBlockDevice(std::uint64_t num_blocks,
                    std::size_t block_size = kDefaultBlockSize)
      : num_blocks_(num_blocks), block_size_(block_size) {}

  std::size_t block_size() const noexcept override { return block_size_; }
  std::uint64_t num_blocks() const noexcept override { return num_blocks_; }

  /// Number of blocks ever written (storage actually consumed).
  std::size_t materialised_blocks() const noexcept { return blocks_.size(); }

 protected:
  void do_read_blocks(std::uint64_t first, std::uint64_t count,
                      util::MutByteSpan out) override {
    for (std::uint64_t i = 0; i < count; ++i) {
      const util::MutByteSpan dst = out.subspan(i * block_size_, block_size_);
      const auto it = blocks_.find(first + i);
      if (it == blocks_.end()) {
        std::fill(dst.begin(), dst.end(), 0);
      } else {
        std::copy(it->second.begin(), it->second.end(), dst.begin());
      }
    }
  }
  void do_write_blocks(std::uint64_t first, util::ByteSpan data) override {
    for (std::uint64_t i = 0; i * block_size_ < data.size(); ++i) {
      const util::ByteSpan src = data.subspan(i * block_size_, block_size_);
      blocks_[first + i].assign(src.begin(), src.end());
    }
  }

 private:
  std::uint64_t num_blocks_;
  std::size_t block_size_;
  std::unordered_map<std::uint64_t, util::Bytes> blocks_;
};

}  // namespace mobiceal::blockdev
