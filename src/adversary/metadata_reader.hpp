// Forensic parser for the thin pool's on-disk metadata, operating on raw
// snapshots. The paper's threat model explicitly grants the adversary this
// capability: "the system keeps the metadata (e.g., the global bitmap, the
// mappings of each virtual volume ...) in a known location and the
// adversary can have access to them" (Sec. IV-B). Deniability must hold
// even though everything parsed here is visible.
#pragma once

#include <cstdint>
#include <vector>

#include "adversary/snapshot.hpp"
#include "thin/metadata_format.hpp"

namespace mobiceal::adversary {

struct ParsedVolume {
  bool active = false;
  std::uint64_t virtual_chunks = 0;
  std::uint64_t mapped_chunks = 0;
  std::vector<std::uint64_t> map;  // vchunk -> phys chunk or kUnmapped
};

/// Where the pool regions live inside the userdata image.
struct PoolLayout {
  std::uint64_t metadata_start_block = 0;
  std::uint64_t data_start_block = 0;

  /// MobiCeal layout (Fig. 3): metadata LV from block 0, data LV aligned to
  /// the next 1 MiB LVM extent boundary.
  static PoolLayout mobiceal(const thin::Superblock& sb,
                             std::size_t block_size);
  /// MobiPluto layout: data region directly after the metadata region.
  static PoolLayout mobipluto(const thin::Superblock& sb,
                              std::size_t block_size);
};

/// Whether the scheme keeps a thin pool at all: the thin superblock magic
/// sits at `metadata_start_block`. Says nothing about whether the rest
/// parses (ThinMetadataReader checks that).
bool has_thin_pool(const Snapshot& snap,
                   std::uint64_t metadata_start_block = 0);

class ThinMetadataReader {
 public:
  /// Parses the metadata region found at `metadata_start_block` of the
  /// snapshot. Throws util::MetadataError on bad magic/checksum.
  ThinMetadataReader(const Snapshot& snap,
                     std::uint64_t metadata_start_block = 0);

  const thin::Superblock& superblock() const noexcept { return sb_; }
  const std::vector<ParsedVolume>& volumes() const noexcept {
    return volumes_;
  }
  thin::AllocPolicy policy() const noexcept { return sb_.policy; }

  /// Physical chunks marked allocated in the global bitmap.
  const std::vector<std::uint64_t>& allocated_chunks() const noexcept {
    return allocated_;
  }

  /// Set of physical chunks mapped by volume `id`.
  std::vector<std::uint64_t> chunks_of_volume(std::uint32_t id) const;

  /// Physical chunks allocated but mapped by no volume ("leaked"; should be
  /// empty on a consistent pool).
  std::vector<std::uint64_t> orphan_chunks() const;

  /// Raw content of a physical data chunk, given the data region location.
  util::Bytes chunk_content(const Snapshot& snap, const PoolLayout& layout,
                            std::uint64_t phys_chunk) const;

 private:
  thin::Superblock sb_;
  std::vector<ParsedVolume> volumes_;
  std::vector<std::uint64_t> allocated_;
};

}  // namespace mobiceal::adversary
