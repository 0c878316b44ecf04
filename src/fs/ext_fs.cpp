#include "fs/ext_fs.hpp"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "fs/run_coalescer.hpp"
#include "util/error.hpp"

namespace mobiceal::fs {

namespace {
constexpr std::uint32_t kExtVersion = 1;

// A directory is an array of 64-byte records: inode (u32, 0 = tombstone),
// name length (u8), then the name.
constexpr std::size_t kDirentSize = 64;
constexpr std::size_t kMaxName = 57;
}  // namespace

// ---- FileSystem helpers (shared by all implementations) -----------------------

void FileSystem::write_file(const std::string& path, util::ByteSpan data) {
  if (!exists(path)) create(path);
  write(path, 0, data);
}

util::Bytes FileSystem::read_file(const std::string& path) {
  const FileInfo info = stat(path);
  return read(path, 0, info.size);
}

std::vector<std::string> split_path(const std::string& path) {
  if (path.empty() || path[0] != '/') {
    throw util::FsError("path must be absolute: " + path);
  }
  std::vector<std::string> parts;
  std::size_t i = 1;
  while (i < path.size()) {
    const std::size_t j = path.find('/', i);
    const std::size_t end = (j == std::string::npos) ? path.size() : j;
    if (end == i) throw util::FsError("empty path component: " + path);
    parts.push_back(path.substr(i, end - i));
    i = end + 1;
  }
  return parts;
}

// ---- construction / geometry ----------------------------------------------------

ExtFs::ExtFs(std::shared_ptr<blockdev::BlockDevice> dev)
    : dev_(std::move(dev)), bs_(dev_->block_size()) {}

std::unique_ptr<ExtFs> ExtFs::format(
    std::shared_ptr<blockdev::BlockDevice> dev, std::uint32_t inode_count) {
  auto fs = std::unique_ptr<ExtFs>(new ExtFs(std::move(dev)));
  const std::size_t bs = fs->bs_;
  fs->inode_count_ = inode_count;
  fs->total_blocks_ = fs->dev_->num_blocks();

  const std::uint64_t bits_per_block = bs * 8;
  fs->block_bitmap_start_ = 1;
  fs->block_bitmap_blocks_ =
      (fs->total_blocks_ + bits_per_block - 1) / bits_per_block;
  fs->inode_bitmap_start_ =
      fs->block_bitmap_start_ + fs->block_bitmap_blocks_;
  fs->inode_bitmap_blocks_ = (inode_count + bits_per_block - 1) / bits_per_block;
  fs->inode_table_start_ = fs->inode_bitmap_start_ + fs->inode_bitmap_blocks_;
  fs->inode_table_blocks_ =
      (std::uint64_t{inode_count} * kInodeSize + bs - 1) / bs;
  fs->data_start_ = fs->inode_table_start_ + fs->inode_table_blocks_;
  if (fs->data_start_ + 8 > fs->total_blocks_) {
    throw util::FsError("extfs format: device too small");
  }
  fs->free_blocks_ = fs->total_blocks_ - fs->data_start_;
  fs->free_inodes_ = inode_count - 2;  // ino 0 reserved, ino 1 = root
  fs->last_alloc_ = fs->data_start_;

  // Zero the metadata region in the cache, mark the region used in the
  // block bitmap, mark inodes 0 and 1 used in the inode bitmap.
  for (std::uint64_t b = 1; b < fs->data_start_; ++b) {
    auto& blk = fs->cache_block(b);
    std::memset(blk.data(), 0, bs);
    fs->dirty_block(b);
  }
  for (std::uint64_t b = 0; b < fs->data_start_; ++b) {
    auto& bm = fs->cache_block(fs->block_bitmap_start_ + b / bits_per_block);
    bm[(b % bits_per_block) / 8] |=
        static_cast<std::uint8_t>(1u << (b % 8));
  }
  {
    auto& ibm = fs->cache_block(fs->inode_bitmap_start_);
    ibm[0] |= 0x03;  // inodes 0 and 1
    fs->dirty_block(fs->inode_bitmap_start_);
  }
  Inode root;
  root.mode = kModeDir;
  fs->write_inode(kRootInode, root);
  fs->write_superblock();
  fs->sync();
  return fs;
}

std::unique_ptr<ExtFs> ExtFs::mount(
    std::shared_ptr<blockdev::BlockDevice> dev) {
  auto fs = std::unique_ptr<ExtFs>(new ExtFs(std::move(dev)));
  fs->load();
  return fs;
}

bool ExtFs::probe(blockdev::BlockDevice& dev) {
  util::Bytes block(dev.block_size());
  dev.read_block(0, block);
  return util::load_le<std::uint64_t>(block.data()) == kMagic;
}

void ExtFs::write_superblock() {
  auto& sb = cache_block(0);
  std::memset(sb.data(), 0, bs_);
  util::store_le<std::uint64_t>(sb.data() + 0, kMagic);
  util::store_le<std::uint32_t>(sb.data() + 8, kExtVersion);
  util::store_le<std::uint32_t>(sb.data() + 12,
                                static_cast<std::uint32_t>(bs_));
  util::store_le<std::uint64_t>(sb.data() + 16, total_blocks_);
  util::store_le<std::uint32_t>(sb.data() + 24, inode_count_);
  util::store_le<std::uint64_t>(sb.data() + 28, free_blocks_);
  util::store_le<std::uint32_t>(sb.data() + 36, free_inodes_);
  dirty_block(0);
}

void ExtFs::load() {
  util::Bytes sb(bs_);
  dev_->read_block(0, sb);
  if (util::load_le<std::uint64_t>(sb.data()) != kMagic) {
    throw util::FsError("extfs mount: bad superblock magic");
  }
  const std::uint32_t stored_bs = util::load_le<std::uint32_t>(sb.data() + 12);
  if (stored_bs != bs_) throw util::FsError("extfs mount: block size mismatch");
  total_blocks_ = util::load_le<std::uint64_t>(sb.data() + 16);
  inode_count_ = util::load_le<std::uint32_t>(sb.data() + 24);
  free_blocks_ = util::load_le<std::uint64_t>(sb.data() + 28);
  free_inodes_ = util::load_le<std::uint32_t>(sb.data() + 36);

  const std::uint64_t bits_per_block = bs_ * 8;
  block_bitmap_start_ = 1;
  block_bitmap_blocks_ = (total_blocks_ + bits_per_block - 1) / bits_per_block;
  inode_bitmap_start_ = block_bitmap_start_ + block_bitmap_blocks_;
  inode_bitmap_blocks_ = (inode_count_ + bits_per_block - 1) / bits_per_block;
  inode_table_start_ = inode_bitmap_start_ + inode_bitmap_blocks_;
  inode_table_blocks_ =
      (std::uint64_t{inode_count_} * kInodeSize + bs_ - 1) / bs_;
  data_start_ = inode_table_start_ + inode_table_blocks_;
  last_alloc_ = data_start_;
}

// ---- metadata cache ---------------------------------------------------------------

util::Bytes& ExtFs::cache_block(std::uint64_t block) {
  auto it = cache_.find(block);
  if (it == cache_.end()) {
    util::Bytes data(bs_);
    dev_->read_block(block, data);
    it = cache_.emplace(block, std::move(data)).first;
  }
  return it->second;
}

void ExtFs::dirty_block(std::uint64_t block) { dirty_.insert(block); }

void ExtFs::sync() {
  write_superblock();
  while (!dirty_.empty()) {
    const auto it = dirty_.begin();
    dev_->write_block(*it, cache_.at(*it));
    dirty_.erase(it);  // only once written: a throw leaves it dirty
  }
  dev_->flush();
}

// ---- allocation ----------------------------------------------------------------------

bool ExtFs::block_in_use(std::uint64_t block) {
  const std::uint64_t bits_per_block = bs_ * 8;
  auto& bm = cache_block(block_bitmap_start_ + block / bits_per_block);
  return (bm[(block % bits_per_block) / 8] >> (block % 8)) & 1;
}

std::uint64_t ExtFs::alloc_block(std::uint64_t hint) {
  if (free_blocks_ == 0) throw util::NoSpaceError("extfs: no free blocks");
  const std::uint64_t bits_per_block = bs_ * 8;
  std::uint64_t start = hint ? hint : last_alloc_;
  if (start < data_start_ || start >= total_blocks_) start = data_start_;
  for (std::uint64_t i = 0; i < total_blocks_ - data_start_; ++i) {
    std::uint64_t b = start + i;
    if (b >= total_blocks_) b = data_start_ + (b - total_blocks_);
    auto& bm = cache_block(block_bitmap_start_ + b / bits_per_block);
    const std::size_t byte = (b % bits_per_block) / 8;
    const std::uint8_t mask = static_cast<std::uint8_t>(1u << (b % 8));
    if (!(bm[byte] & mask)) {
      bm[byte] |= mask;
      dirty_block(block_bitmap_start_ + b / bits_per_block);
      --free_blocks_;
      last_alloc_ = b + 1 < total_blocks_ ? b + 1 : data_start_;
      return b;
    }
  }
  throw util::NoSpaceError("extfs: bitmap scan found no free block");
}

void ExtFs::free_block(std::uint64_t block) {
  const std::uint64_t bits_per_block = bs_ * 8;
  auto& bm = cache_block(block_bitmap_start_ + block / bits_per_block);
  const std::size_t byte = (block % bits_per_block) / 8;
  const std::uint8_t mask = static_cast<std::uint8_t>(1u << (block % 8));
  if (!(bm[byte] & mask)) throw util::FsError("double free of block");
  bm[byte] &= static_cast<std::uint8_t>(~mask);
  dirty_block(block_bitmap_start_ + block / bits_per_block);
  ++free_blocks_;
}

std::uint32_t ExtFs::alloc_inode() {
  if (free_inodes_ == 0) throw util::NoSpaceError("extfs: no free inodes");
  const std::uint64_t bits_per_block = bs_ * 8;
  for (std::uint32_t ino = 2; ino < inode_count_; ++ino) {
    auto& bm = cache_block(inode_bitmap_start_ + ino / bits_per_block);
    const std::size_t byte = (ino % bits_per_block) / 8;
    const std::uint8_t mask = static_cast<std::uint8_t>(1u << (ino % 8));
    if (!(bm[byte] & mask)) {
      bm[byte] |= mask;
      dirty_block(inode_bitmap_start_ + ino / bits_per_block);
      --free_inodes_;
      return ino;
    }
  }
  throw util::NoSpaceError("extfs: inode bitmap scan failed");
}

void ExtFs::free_inode(std::uint32_t ino) {
  const std::uint64_t bits_per_block = bs_ * 8;
  auto& bm = cache_block(inode_bitmap_start_ + ino / bits_per_block);
  const std::size_t byte = (ino % bits_per_block) / 8;
  const std::uint8_t mask = static_cast<std::uint8_t>(1u << (ino % 8));
  bm[byte] &= static_cast<std::uint8_t>(~mask);
  dirty_block(inode_bitmap_start_ + ino / bits_per_block);
  ++free_inodes_;
}

// ---- inode table ------------------------------------------------------------------------

ExtFs::Inode ExtFs::read_inode(std::uint32_t ino) {
  if (ino == 0 || ino >= inode_count_) throw util::FsError("bad inode number");
  const std::uint64_t byte_off = std::uint64_t{ino} * kInodeSize;
  auto& blk = cache_block(inode_table_start_ + byte_off / bs_);
  const std::uint8_t* p = blk.data() + byte_off % bs_;
  Inode n;
  n.mode = util::load_le<std::uint32_t>(p);
  n.size = util::load_le<std::uint64_t>(p + 8);
  n.nblocks = util::load_le<std::uint64_t>(p + 16);
  for (int i = 0; i < 10; ++i) {
    n.direct[i] = util::load_le<std::uint64_t>(p + 24 + 8 * i);
  }
  n.indirect = util::load_le<std::uint64_t>(p + 104);
  n.double_indirect = util::load_le<std::uint64_t>(p + 112);
  return n;
}

void ExtFs::write_inode(std::uint32_t ino, const Inode& inode) {
  if (ino == 0 || ino >= inode_count_) throw util::FsError("bad inode number");
  const std::uint64_t byte_off = std::uint64_t{ino} * kInodeSize;
  auto& blk = cache_block(inode_table_start_ + byte_off / bs_);
  std::uint8_t* p = blk.data() + byte_off % bs_;
  std::memset(p, 0, kInodeSize);
  util::store_le<std::uint32_t>(p, inode.mode);
  util::store_le<std::uint64_t>(p + 8, inode.size);
  util::store_le<std::uint64_t>(p + 16, inode.nblocks);
  for (int i = 0; i < 10; ++i) {
    util::store_le<std::uint64_t>(p + 24 + 8 * i, inode.direct[i]);
  }
  util::store_le<std::uint64_t>(p + 104, inode.indirect);
  util::store_le<std::uint64_t>(p + 112, inode.double_indirect);
  dirty_block(inode_table_start_ + byte_off / bs_);
}

// ---- block mapping ---------------------------------------------------------------------------

std::uint64_t ExtFs::bmap(const Inode& inode, std::uint64_t fb) {
  const std::uint64_t ptrs = bs_ / 8;
  if (fb < 10) return inode.direct[fb];
  fb -= 10;
  if (fb < ptrs) {
    if (inode.indirect == 0) return 0;
    auto& ind = cache_block(inode.indirect);
    return util::load_le<std::uint64_t>(ind.data() + fb * 8);
  }
  fb -= ptrs;
  if (fb < ptrs * ptrs) {
    if (inode.double_indirect == 0) return 0;
    auto& dind = cache_block(inode.double_indirect);
    const std::uint64_t l1 =
        util::load_le<std::uint64_t>(dind.data() + (fb / ptrs) * 8);
    if (l1 == 0) return 0;
    auto& ind = cache_block(l1);
    return util::load_le<std::uint64_t>(ind.data() + (fb % ptrs) * 8);
  }
  throw util::FsError("file offset beyond maximum file size");
}

std::uint64_t ExtFs::bmap_alloc(Inode& inode, std::uint64_t fb) {
  const std::uint64_t ptrs = bs_ / 8;
  // Locality hint: allocate after the last block of the file if known.
  const std::uint64_t hint = last_alloc_;

  auto alloc_meta_block = [&]() {
    const std::uint64_t b = alloc_block(hint);
    auto& blk = cache_block(b);
    std::memset(blk.data(), 0, bs_);
    dirty_block(b);
    ++inode.nblocks;
    return b;
  };

  if (fb < 10) {
    if (inode.direct[fb] == 0) {
      inode.direct[fb] = alloc_block(hint);
      ++inode.nblocks;
    }
    return inode.direct[fb];
  }
  fb -= 10;
  if (fb < ptrs) {
    if (inode.indirect == 0) inode.indirect = alloc_meta_block();
    auto& ind = cache_block(inode.indirect);
    std::uint64_t b = util::load_le<std::uint64_t>(ind.data() + fb * 8);
    if (b == 0) {
      b = alloc_block(hint);
      ++inode.nblocks;
      util::store_le<std::uint64_t>(ind.data() + fb * 8, b);
      dirty_block(inode.indirect);
    }
    return b;
  }
  fb -= ptrs;
  if (fb >= ptrs * ptrs) {
    throw util::FsError("file offset beyond maximum file size");
  }
  if (inode.double_indirect == 0) inode.double_indirect = alloc_meta_block();
  auto& dind = cache_block(inode.double_indirect);
  std::uint64_t l1 =
      util::load_le<std::uint64_t>(dind.data() + (fb / ptrs) * 8);
  if (l1 == 0) {
    l1 = alloc_meta_block();
    util::store_le<std::uint64_t>(dind.data() + (fb / ptrs) * 8, l1);
    dirty_block(inode.double_indirect);
  }
  auto& ind = cache_block(l1);
  std::uint64_t b = util::load_le<std::uint64_t>(ind.data() + (fb % ptrs) * 8);
  if (b == 0) {
    b = alloc_block(hint);
    ++inode.nblocks;
    util::store_le<std::uint64_t>(ind.data() + (fb % ptrs) * 8, b);
    dirty_block(l1);
  }
  return b;
}

void ExtFs::collect_blocks(const Inode& inode, std::vector<std::uint64_t>& out,
                           bool include_indirect) {
  const std::uint64_t ptrs = bs_ / 8;
  for (int i = 0; i < 10; ++i) {
    if (inode.direct[i]) out.push_back(inode.direct[i]);
  }
  if (inode.indirect) {
    if (include_indirect) out.push_back(inode.indirect);
    auto& ind = cache_block(inode.indirect);
    for (std::uint64_t e = 0; e < ptrs; ++e) {
      const std::uint64_t b = util::load_le<std::uint64_t>(ind.data() + e * 8);
      if (b) out.push_back(b);
    }
  }
  if (inode.double_indirect) {
    if (include_indirect) out.push_back(inode.double_indirect);
    auto& dind = cache_block(inode.double_indirect);
    for (std::uint64_t l = 0; l < ptrs; ++l) {
      const std::uint64_t l1 = util::load_le<std::uint64_t>(dind.data() + l * 8);
      if (!l1) continue;
      if (include_indirect) out.push_back(l1);
      auto& ind = cache_block(l1);
      for (std::uint64_t e = 0; e < ptrs; ++e) {
        const std::uint64_t b =
            util::load_le<std::uint64_t>(ind.data() + e * 8);
        if (b) out.push_back(b);
      }
    }
  }
}

void ExtFs::truncate(Inode& inode) {
  std::vector<std::uint64_t> blocks;
  collect_blocks(inode, blocks, /*include_indirect=*/true);
  for (std::uint64_t b : blocks) free_block(b);
  inode.size = 0;
  inode.nblocks = 0;
  inode.direct.fill(0);
  inode.indirect = 0;
  inode.double_indirect = 0;
}

// ---- directories ---------------------------------------------------------------------------------

template <typename Fn>
void ExtFs::for_each_dirent(const Inode& dir, Fn&& fn) {
  if (dir.mode != kModeDir) throw util::FsError("not a directory");
  bool stopped = false;
  for (std::uint64_t pos = 0; pos < dir.size; pos += bs_) {
    // Directories have no holes: appending a record allocates its block.
    const std::uint64_t phys = bmap(dir, pos / bs_);
    if (phys == 0) continue;
    const std::uint8_t* blk = cache_block(phys).data();
    const std::uint64_t end = std::min<std::uint64_t>(bs_, dir.size - pos);
    for (std::size_t r = 0; !stopped && r + kDirentSize <= end;
         r += kDirentSize) {
      const std::uint8_t* rec = blk + r;
      const std::string_view name(reinterpret_cast<const char*>(rec + 5),
                                  std::min<std::size_t>(rec[4], kMaxName));
      stopped = fn(util::load_le<std::uint32_t>(rec), name, pos + r);
    }
  }
}

std::optional<std::uint32_t> ExtFs::dir_lookup(std::uint32_t dir_ino,
                                               const std::string& name) {
  std::optional<std::uint32_t> found;
  for_each_dirent(read_inode(dir_ino), [&](auto ino, auto entry, auto) {
    if (ino != 0 && entry == name) found = ino;
    return found.has_value();
  });
  return found;
}

void ExtFs::dir_insert(std::uint32_t dir_ino, const std::string& name,
                       std::uint32_t ino) {
  if (name.size() > kMaxName) throw util::FsError("name too long: " + name);
  Inode dir = read_inode(dir_ino);
  // Reuse a tombstoned slot if one exists, else append.
  std::uint64_t slot_off = dir.size;
  for_each_dirent(dir, [&](auto ino, auto, auto off) {
    if (ino == 0) slot_off = off;
    return ino == 0;
  });
  util::Bytes rec(kDirentSize, 0);
  util::store_le<std::uint32_t>(rec.data(), ino);
  rec[4] = static_cast<std::uint8_t>(name.size());
  std::memcpy(rec.data() + 5, name.data(), name.size());
  inode_write(dir_ino, dir, slot_off, rec, /*cached=*/true);
  write_inode(dir_ino, dir);
}

void ExtFs::dir_remove(std::uint32_t dir_ino, const std::string& name) {
  Inode dir = read_inode(dir_ino);
  std::optional<std::uint64_t> slot_off;
  for_each_dirent(dir, [&](auto ino, auto entry, auto off) {
    if (ino != 0 && entry == name) slot_off = off;
    return slot_off.has_value();
  });
  if (!slot_off) throw util::FsError("no such entry: " + name);
  const util::Bytes zero(kDirentSize, 0);
  inode_write(dir_ino, dir, *slot_off, zero, /*cached=*/true);
  write_inode(dir_ino, dir);
}

bool ExtFs::dir_empty(std::uint32_t dir_ino) {
  bool empty = true;
  for_each_dirent(read_inode(dir_ino), [&](auto ino, auto, auto) {
    empty = ino == 0;
    return !empty;
  });
  return empty;
}

// ---- path resolution --------------------------------------------------------------------------------

std::uint32_t ExtFs::resolve(const std::string& path) {
  std::uint32_t ino = kRootInode;
  for (const auto& part : split_path(path)) {
    const auto next = dir_lookup(ino, part);
    if (!next) throw util::FsError("no such path: " + path);
    ino = *next;
  }
  return ino;
}

std::pair<std::uint32_t, std::string> ExtFs::resolve_parent(
    const std::string& path) {
  auto parts = split_path(path);
  if (parts.empty()) throw util::FsError("cannot operate on /");
  const std::string leaf = parts.back();
  parts.pop_back();
  std::uint32_t ino = kRootInode;
  for (const auto& part : parts) {
    const auto next = dir_lookup(ino, part);
    if (!next) throw util::FsError("no such directory in: " + path);
    ino = *next;
    if (read_inode(ino).mode != kModeDir) {
      throw util::FsError("not a directory in: " + path);
    }
  }
  return {ino, leaf};
}

// ---- ranged file I/O -----------------------------------------------------------------------------------

void ExtFs::inode_write(std::uint32_t /*ino*/, Inode& inode,
                        std::uint64_t offset, util::ByteSpan data,
                        bool cached) {
  std::uint64_t pos = offset;
  std::size_t done = 0;
  util::Bytes blockbuf(bs_);

  // Full-block writes to physically contiguous blocks coalesce into one
  // vectored device call (the locality-aware allocator makes sequential
  // file writes land contiguously, so streaming writes become long runs).
  RunCoalescer runs(bs_, [&](std::uint64_t first, std::uint64_t n,
                        std::size_t src) {
    dev_->write_blocks(first, {data.data() + src,
                               static_cast<std::size_t>(n) * bs_});
  });

  while (done < data.size()) {
    const std::uint64_t fb = pos / bs_;
    const std::size_t in_block = pos % bs_;
    const std::size_t take =
        std::min<std::size_t>(bs_ - in_block, data.size() - done);
    const bool was_mapped = bmap(inode, fb) != 0;
    const std::uint64_t phys = bmap_alloc(inode, fb);
    if (cached) {
      auto& blk = cache_block(phys);
      if (!was_mapped) std::memset(blk.data(), 0, bs_);
      std::memcpy(blk.data() + in_block, data.data() + done, take);
      dirty_block(phys);
    } else if (take == bs_) {
      runs.push(phys, done);
    } else {
      runs.flush();
      if (was_mapped) {
        dev_->read_block(phys, blockbuf);
      } else {
        std::memset(blockbuf.data(), 0, bs_);
      }
      std::memcpy(blockbuf.data() + in_block, data.data() + done, take);
      dev_->write_block(phys, blockbuf);
    }
    pos += take;
    done += take;
  }
  runs.flush();
  inode.size = std::max(inode.size, offset + data.size());
}

util::Bytes ExtFs::inode_read(const Inode& inode, std::uint64_t offset,
                              std::uint64_t len) {
  if (offset >= inode.size) return {};
  len = std::min(len, inode.size - offset);
  util::Bytes out(len);
  util::Bytes blockbuf(bs_);
  std::uint64_t pos = offset;
  std::size_t done = 0;

  // Full-block reads of physically contiguous blocks coalesce into one
  // vectored device call; holes and partial blocks break the run.
  RunCoalescer runs(bs_, [&](std::uint64_t first, std::uint64_t n,
                        std::size_t dst) {
    dev_->read_blocks(first, n,
                      {out.data() + dst, static_cast<std::size_t>(n) * bs_});
  });

  while (done < len) {
    const std::uint64_t fb = pos / bs_;
    const std::size_t in_block = pos % bs_;
    const std::size_t take = std::min<std::size_t>(bs_ - in_block, len - done);
    const std::uint64_t phys = bmap(inode, fb);
    if (phys == 0) {
      runs.flush();
      std::memset(out.data() + done, 0, take);
    } else if (take == bs_) {
      runs.push(phys, done);
    } else {
      runs.flush();
      dev_->read_block(phys, blockbuf);
      std::memcpy(out.data() + done, blockbuf.data() + in_block, take);
    }
    pos += take;
    done += take;
  }
  runs.flush();
  return out;
}

// ---- public API ----------------------------------------------------------------------------------------------

void ExtFs::create(const std::string& path) { make_node(path, kModeFile); }

void ExtFs::mkdir(const std::string& path) { make_node(path, kModeDir); }

void ExtFs::make_node(const std::string& path, std::uint32_t mode) {
  const auto [parent, leaf] = resolve_parent(path);
  if (dir_lookup(parent, leaf)) throw util::FsError("exists: " + path);
  const std::uint32_t ino = alloc_inode();
  Inode n;
  n.mode = mode;
  write_inode(ino, n);
  dir_insert(parent, leaf, ino);
}

void ExtFs::unlink(const std::string& path) {
  const auto [parent, leaf] = resolve_parent(path);
  const auto ino = dir_lookup(parent, leaf);
  if (!ino) throw util::FsError("no such path: " + path);
  Inode n = read_inode(*ino);
  if (n.mode == kModeDir && !dir_empty(*ino)) {
    throw util::FsError("directory not empty: " + path);
  }
  truncate(n);
  n.mode = kModeFree;
  write_inode(*ino, n);
  free_inode(*ino);
  dir_remove(parent, leaf);
}

bool ExtFs::exists(const std::string& path) {
  try {
    resolve(path);
    return true;
  } catch (const util::FsError&) {
    return false;
  }
}

void ExtFs::write(const std::string& path, std::uint64_t offset,
                  util::ByteSpan data) {
  const std::uint32_t ino = resolve(path);
  Inode n = read_inode(ino);
  if (n.mode != kModeFile) throw util::FsError("not a file: " + path);
  inode_write(ino, n, offset, data);
  write_inode(ino, n);
}

util::Bytes ExtFs::read(const std::string& path, std::uint64_t offset,
                        std::uint64_t len) {
  const std::uint32_t ino = resolve(path);
  const Inode n = read_inode(ino);
  if (n.mode != kModeFile) throw util::FsError("not a file: " + path);
  return inode_read(n, offset, len);
}

FileInfo ExtFs::stat(const std::string& path) {
  const Inode n = read_inode(resolve(path));
  return {n.mode == kModeDir, n.size, n.nblocks};
}

std::vector<std::string> ExtFs::list(const std::string& path) {
  std::vector<std::string> out;
  for_each_dirent(read_inode(resolve(path)), [&](auto ino, auto entry, auto) {
    if (ino != 0) out.emplace_back(entry);
    return false;
  });
  return out;
}

std::uint64_t ExtFs::free_bytes() { return free_blocks_ * bs_; }

bool ExtFs::fsck() {
  // Reference-count every block reachable from live inodes; verify against
  // the bitmap and the free counter.
  std::map<std::uint64_t, int> refs;
  const std::uint64_t bits_per_block = bs_ * 8;
  std::uint32_t live_inodes = 0;
  for (std::uint32_t ino = 1; ino < inode_count_; ++ino) {
    auto& ibm = cache_block(inode_bitmap_start_ + ino / bits_per_block);
    const bool marked = (ibm[(ino % bits_per_block) / 8] >> (ino % 8)) & 1;
    const Inode n = read_inode(ino);
    if (n.mode == kModeFree) {
      if (marked && ino != kRootInode) return false;  // leaked inode
      continue;
    }
    if (!marked) return false;  // live inode not in bitmap
    ++live_inodes;
    std::vector<std::uint64_t> blocks;
    collect_blocks(n, blocks, /*include_indirect=*/true);
    for (std::uint64_t b : blocks) ++refs[b];
  }
  for (const auto& [block, count] : refs) {
    if (count != 1) return false;  // cross-linked block
    if (block < data_start_ || block >= total_blocks_) return false;
    if (!block_in_use(block)) return false;  // in use but not marked
  }
  // Count free bits in the data region.
  std::uint64_t free_count = 0;
  for (std::uint64_t b = data_start_; b < total_blocks_; ++b) {
    auto& bm = cache_block(block_bitmap_start_ + b / bits_per_block);
    if (!((bm[(b % bits_per_block) / 8] >> (b % 8)) & 1)) {
      ++free_count;
    } else if (refs.find(b) == refs.end()) {
      return false;  // marked used but unreferenced (leak)
    }
  }
  return free_count == free_blocks_ &&
         live_inodes == inode_count_ - 2 - free_inodes_ + 1;
}

}  // namespace mobiceal::fs
