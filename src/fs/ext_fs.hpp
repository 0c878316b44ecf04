// ExtFs — a simplified ext4-style filesystem, from scratch.
//
// Structure: superblock, block bitmap, inode bitmap, inode table, data
// blocks. Inodes carry 10 direct pointers, one single-indirect and one
// double-indirect block (max file size ≈ 1 GiB at 4 KiB blocks). The data
// allocator is locality-aware (next-free after the file's previous block),
// reproducing the spatial locality of real FS writes that the paper's
// random-allocation argument hinges on (Sec. IV-A, footnote 3).
//
// Metadata is write-back cached and flushed on sync(), modelling the page
// cache; file data always goes straight to the device.
//
// The mount path validates the superblock magic — this is exactly the
// password-correctness oracle MobiCeal's boot process uses ("If a valid Ext4
// file system can be mounted, the password is correct", Sec. V-B).
#pragma once

#include <map>
#include <optional>
#include <set>

#include "fs/filesystem.hpp"

namespace mobiceal::fs {

class ExtFs final : public FileSystem {
 public:
  /// "EXTSIMFS" little-endian.
  static constexpr std::uint64_t kMagic = 0x53464D4953545845ULL;

  /// Formats the device and returns a mounted filesystem.
  static std::unique_ptr<ExtFs> format(
      std::shared_ptr<blockdev::BlockDevice> dev,
      std::uint32_t inode_count = 4096);

  /// Mounts an existing filesystem; throws util::FsError if the superblock
  /// is invalid (wrong key / not formatted).
  static std::unique_ptr<ExtFs> mount(
      std::shared_ptr<blockdev::BlockDevice> dev);

  /// Non-throwing validity check (reads one block).
  static bool probe(blockdev::BlockDevice& dev);

  const char* type() const noexcept override { return "extfs"; }
  void create(const std::string& path) override;
  void mkdir(const std::string& path) override;
  void unlink(const std::string& path) override;
  bool exists(const std::string& path) override;
  void write(const std::string& path, std::uint64_t offset,
             util::ByteSpan data) override;
  util::Bytes read(const std::string& path, std::uint64_t offset,
                   std::uint64_t len) override;
  FileInfo stat(const std::string& path) override;
  std::vector<std::string> list(const std::string& path) override;
  void sync() override;
  std::uint64_t free_bytes() override;

  /// Consistency check: every block referenced by exactly one inode and
  /// marked in the bitmap, sizes consistent. Used by property tests.
  bool fsck();

 private:
  struct Inode {
    std::uint32_t mode = 0;  // 0 free, 1 file, 2 dir
    std::uint64_t size = 0;
    std::uint64_t nblocks = 0;
    std::array<std::uint64_t, 10> direct{};
    std::uint64_t indirect = 0;
    std::uint64_t double_indirect = 0;
  };
  static constexpr std::size_t kInodeSize = 128;
  static constexpr std::uint32_t kRootInode = 1;
  static constexpr std::uint32_t kModeFree = 0;
  static constexpr std::uint32_t kModeFile = 1;
  static constexpr std::uint32_t kModeDir = 2;

  explicit ExtFs(std::shared_ptr<blockdev::BlockDevice> dev);

  // -- geometry / superblock --
  void write_superblock();
  void load();

  // -- cached metadata-block access --
  util::Bytes& cache_block(std::uint64_t block);
  void dirty_block(std::uint64_t block);

  // -- allocation --
  std::uint64_t alloc_block(std::uint64_t hint);
  void free_block(std::uint64_t block);
  std::uint32_t alloc_inode();
  void free_inode(std::uint32_t ino);
  bool block_in_use(std::uint64_t block);

  // -- inode I/O --
  Inode read_inode(std::uint32_t ino);
  void write_inode(std::uint32_t ino, const Inode& inode);

  // -- block mapping --
  /// Physical block for file block `fb`, or 0 if a hole.
  std::uint64_t bmap(const Inode& inode, std::uint64_t fb);
  /// Same but allocates missing blocks (and indirect blocks) on demand.
  std::uint64_t bmap_alloc(Inode& inode, std::uint64_t fb);
  /// Releases all blocks of an inode.
  void truncate(Inode& inode);
  /// Enumerates all data+indirect blocks of an inode into `out`.
  void collect_blocks(const Inode& inode, std::vector<std::uint64_t>& out,
                      bool include_indirect);

  // -- directories --
  /// Hands `fn(inode, name, offset)` every 64-byte record of directory
  /// `dir` (inode 0: a free slot), in offset order, read in place from the
  /// metadata cache (`name` views the cached bytes); `fn` returns true to
  /// stop. Every directory block is still touched (bmap, then cache_block)
  /// in order after a stop, so a cold lookup's device reads never depend
  /// on where its match sits.
  template <typename Fn>
  void for_each_dirent(const Inode& dir, Fn&& fn);
  std::optional<std::uint32_t> dir_lookup(std::uint32_t dir_ino,
                                          const std::string& name);
  void dir_insert(std::uint32_t dir_ino, const std::string& name,
                  std::uint32_t ino);
  void dir_remove(std::uint32_t dir_ino, const std::string& name);
  bool dir_empty(std::uint32_t dir_ino);
  /// create()/mkdir(): a new empty inode of `mode`, linked at `path`.
  void make_node(const std::string& path, std::uint32_t mode);

  // -- path resolution --
  std::uint32_t resolve(const std::string& path);
  /// Resolves the parent directory; returns (parent_ino, leaf_name).
  std::pair<std::uint32_t, std::string> resolve_parent(
      const std::string& path);

  // -- ranged file I/O on inodes --
  // File data goes straight to the device. Directory records go through
  // the metadata cache (dentry/page-cache model): inode_write(cached) writes
  // them and for_each_dirent scans them in place, so a lookup costs no
  // device I/O, and no virtual time, once the directory is cached.
  void inode_write(std::uint32_t ino, Inode& inode, std::uint64_t offset,
                   util::ByteSpan data, bool cached = false);
  util::Bytes inode_read(const Inode& inode, std::uint64_t offset,
                         std::uint64_t len);

  std::shared_ptr<blockdev::BlockDevice> dev_;
  std::size_t bs_;

  // Superblock fields.
  std::uint32_t inode_count_ = 0;
  std::uint64_t total_blocks_ = 0;
  std::uint64_t block_bitmap_start_ = 0, block_bitmap_blocks_ = 0;
  std::uint64_t inode_bitmap_start_ = 0, inode_bitmap_blocks_ = 0;
  std::uint64_t inode_table_start_ = 0, inode_table_blocks_ = 0;
  std::uint64_t data_start_ = 0;
  std::uint64_t free_blocks_ = 0;
  std::uint32_t free_inodes_ = 0;

  /// Write-back cache for metadata + indirect blocks (page-cache model).
  std::map<std::uint64_t, util::Bytes> cache_;
  /// Blocks sync() must write back (ascending); dropped once written.
  std::set<std::uint64_t> dirty_;
  std::uint64_t last_alloc_ = 0;
};

}  // namespace mobiceal::fs
