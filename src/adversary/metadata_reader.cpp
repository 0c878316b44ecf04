#include "adversary/metadata_reader.hpp"

#include <set>

#include "util/error.hpp"

namespace mobiceal::adversary {

PoolLayout PoolLayout::mobiceal(const thin::Superblock& sb,
                                std::size_t block_size) {
  const auto geom = thin::MetadataGeometry::compute(sb, block_size);
  // The thinmeta LV occupies whole 1 MiB (256-block) LVM extents from the
  // start of the volume group; thindata follows at the next extent.
  constexpr std::uint64_t kExtent = 256;
  PoolLayout out;
  out.metadata_start_block = 0;
  out.data_start_block = (geom.total_blocks + kExtent - 1) / kExtent * kExtent;
  return out;
}

PoolLayout PoolLayout::mobipluto(const thin::Superblock& sb,
                                 std::size_t block_size) {
  const auto geom = thin::MetadataGeometry::compute(sb, block_size);
  return PoolLayout{0, geom.total_blocks};
}

bool has_thin_pool(const Snapshot& snap,
                   std::uint64_t metadata_start_block) {
  return util::load_le<std::uint64_t>(
             snap.block(metadata_start_block).data()) == thin::kThinMagic;
}

ThinMetadataReader::ThinMetadataReader(const Snapshot& snap,
                                       std::uint64_t metadata_start_block) {
  const std::size_t bs = snap.block_size;
  auto block_at = [&](std::uint64_t b) {
    return snap.block(metadata_start_block + b);
  };

  // Superblock.
  const auto sbb = block_at(0);
  sb_.magic = util::load_le<std::uint64_t>(sbb.data());
  if (sb_.magic != thin::kThinMagic) {
    throw util::MetadataError("forensics: no thin superblock at offset");
  }
  sb_.version = util::load_le<std::uint32_t>(sbb.data() + 8);
  sb_.policy = static_cast<thin::AllocPolicy>(
      util::load_le<std::uint32_t>(sbb.data() + 12));
  sb_.chunk_blocks = util::load_le<std::uint32_t>(sbb.data() + 16);
  sb_.max_volumes = util::load_le<std::uint32_t>(sbb.data() + 20);
  sb_.nr_chunks = util::load_le<std::uint64_t>(sbb.data() + 24);
  sb_.max_chunks_per_volume = util::load_le<std::uint64_t>(sbb.data() + 32);
  sb_.txn_id = util::load_le<std::uint64_t>(sbb.data() + 40);
  sb_.alloc_cursor = util::load_le<std::uint64_t>(sbb.data() + 48);
  sb_.active_area = util::load_le<std::uint32_t>(sbb.data() + 56);
  // v4: allocator shard count — public like the rest of the metadata (the
  // paper's adversary reads everything); zero on pre-sharding superblocks,
  // whose checksum term is then also zero.
  sb_.alloc_shards = util::load_le<std::uint32_t>(sbb.data() + 60);
  sb_.checksum = util::load_le<std::uint64_t>(sbb.data() + 64);
  if (sb_.checksum != sb_.compute_checksum()) {
    throw util::MetadataError("forensics: superblock checksum mismatch");
  }
  const auto geom = thin::MetadataGeometry::compute(sb_, bs);
  const std::uint64_t base = geom.area_start(sb_.active_area);

  // Global bitmap.
  for (std::uint64_t c = 0; c < sb_.nr_chunks; ++c) {
    const auto bm = block_at(base + c / (bs * 8));
    const std::uint64_t bit = c % (bs * 8);
    if ((bm[bit / 8] >> (bit % 8)) & 1) allocated_.push_back(c);
  }

  // Volume table + mappings.
  volumes_.assign(sb_.max_volumes, {});
  const std::uint64_t descs_per_block = bs / thin::kVolumeDescSize;
  for (std::uint32_t v = 0; v < sb_.max_volumes; ++v) {
    const auto vt = block_at(base + geom.volume_table_offset +
                             v / descs_per_block);
    const std::uint8_t* p =
        vt.data() + (v % descs_per_block) * thin::kVolumeDescSize;
    volumes_[v].active = util::load_le<std::uint32_t>(p) == 1;
    volumes_[v].virtual_chunks = util::load_le<std::uint64_t>(p + 8);
    volumes_[v].mapped_chunks = util::load_le<std::uint64_t>(p + 16);
    if (!volumes_[v].active) continue;
    volumes_[v].map.assign(volumes_[v].virtual_chunks, thin::kUnmapped);
    const std::uint64_t entries_per_block = bs / 8;
    for (std::uint64_t e = 0; e < volumes_[v].virtual_chunks; ++e) {
      const auto mb = block_at(base + geom.maps_offset +
                               v * geom.map_blocks_per_volume +
                               e / entries_per_block);
      volumes_[v].map[e] =
          util::load_le<std::uint64_t>(mb.data() + (e % entries_per_block) * 8);
    }
  }
}

std::vector<std::uint64_t> ThinMetadataReader::chunks_of_volume(
    std::uint32_t id) const {
  if (id >= volumes_.size() || !volumes_[id].active) {
    throw util::MetadataError("forensics: no such volume");
  }
  std::vector<std::uint64_t> out;
  for (std::uint64_t p : volumes_[id].map) {
    if (p != thin::kUnmapped) out.push_back(p);
  }
  return out;
}

std::vector<std::uint64_t> ThinMetadataReader::orphan_chunks() const {
  std::set<std::uint64_t> mapped;
  for (const auto& v : volumes_) {
    if (!v.active) continue;
    for (std::uint64_t p : v.map) {
      if (p != thin::kUnmapped) mapped.insert(p);
    }
  }
  std::vector<std::uint64_t> out;
  for (std::uint64_t c : allocated_) {
    if (!mapped.count(c)) out.push_back(c);
  }
  return out;
}

util::Bytes ThinMetadataReader::chunk_content(const Snapshot& snap,
                                              const PoolLayout& layout,
                                              std::uint64_t phys_chunk) const {
  util::Bytes out(sb_.chunk_blocks * snap.block_size);
  for (std::uint32_t b = 0; b < sb_.chunk_blocks; ++b) {
    const auto src = snap.block(layout.data_start_block +
                                phys_chunk * sb_.chunk_blocks + b);
    std::copy(src.begin(), src.end(),
              out.begin() + b * snap.block_size);
  }
  return out;
}

}  // namespace mobiceal::adversary
