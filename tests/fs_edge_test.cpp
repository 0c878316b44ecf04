// Filesystem edge cases and stress patterns beyond the core fs_test suite:
// deep nesting, directory churn, block-boundary I/O, remount-under-crypt,
// and capacity behaviour.
#include <gtest/gtest.h>

#include <algorithm>

#include "blockdev/block_device.hpp"
#include "blockdev/fault_injector.hpp"
#include "blockdev/recording_device.hpp"
#include "dm/crypt_target.hpp"
#include "fs/ext_fs.hpp"
#include "fs/fat_fs.hpp"
#include "util/error.hpp"

using namespace mobiceal;

namespace {
util::Bytes payload(std::size_t n, std::uint64_t seed) {
  util::Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed * 131 + i * 29);
  }
  return out;
}

// FNV-1a over 64-bit words.
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;
}  // namespace

TEST(FsEdge, DeeplyNestedDirectories) {
  auto dev = std::make_shared<blockdev::MemBlockDevice>(4096);
  auto fs = fs::ExtFs::format(dev, 512);
  std::string path;
  for (int depth = 0; depth < 24; ++depth) {
    path += "/d" + std::to_string(depth);
    fs->mkdir(path);
  }
  fs->write_file(path + "/leaf.txt", util::bytes_of("deep"));
  fs->sync();
  EXPECT_EQ(fs->read_file(path + "/leaf.txt"), util::bytes_of("deep"));
  EXPECT_TRUE(fs->fsck());
}

TEST(FsEdge, LargeDirectoryListsCompletely) {
  auto dev = std::make_shared<blockdev::MemBlockDevice>(8192);
  auto fs = fs::ExtFs::format(dev, 2048);
  fs->mkdir("/big");
  const int kFiles = 500;  // directory spans many blocks
  for (int i = 0; i < kFiles; ++i) {
    fs->create("/big/file_" + std::to_string(i));
  }
  EXPECT_EQ(fs->list("/big").size(), static_cast<std::size_t>(kFiles));
  // Delete every third entry; listing shrinks accordingly and names of the
  // survivors are intact.
  for (int i = 0; i < kFiles; i += 3) {
    fs->unlink("/big/file_" + std::to_string(i));
  }
  const auto names = fs->list("/big");
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kFiles - (kFiles + 2) / 3));
  EXPECT_TRUE(std::find(names.begin(), names.end(), "file_1") != names.end());
  EXPECT_TRUE(std::find(names.begin(), names.end(), "file_0") == names.end());
  EXPECT_TRUE(fs->fsck());
}

TEST(FsEdge, WritesStraddlingBlockBoundaries) {
  auto dev = std::make_shared<blockdev::MemBlockDevice>(2048);
  auto fs = fs::ExtFs::format(dev, 128);
  fs->create("/straddle.bin");
  // Write 100 bytes across the 4096-byte boundary.
  const auto piece = payload(100, 1);
  fs->write("/straddle.bin", 4046, piece);
  EXPECT_EQ(fs->read("/straddle.bin", 4046, 100), piece);
  // Overwrite exactly at the boundary.
  const auto piece2 = payload(4096, 2);
  fs->write("/straddle.bin", 4096, piece2);
  EXPECT_EQ(fs->read("/straddle.bin", 4096, 4096), piece2);
  // The straddling bytes before the boundary survived.
  EXPECT_EQ(fs->read("/straddle.bin", 4046, 50),
            util::Bytes(piece.begin(), piece.begin() + 50));
}

TEST(FsEdge, NameLengthLimits) {
  auto dev = std::make_shared<blockdev::MemBlockDevice>(2048);
  auto fs = fs::ExtFs::format(dev, 128);
  const std::string ok(57, 'a');
  fs->create("/" + ok);
  EXPECT_TRUE(fs->exists("/" + ok));
  const std::string too_long(64, 'b');
  EXPECT_THROW(fs->create("/" + too_long), util::FsError);
}

TEST(FsEdge, FileGrowthThroughAllMappingLevels) {
  // Cross direct (40 KiB), single-indirect (+2 MiB) and into
  // double-indirect territory in one growing file, verifying content at
  // each stage.
  auto dev = std::make_shared<blockdev::MemBlockDevice>(16384);
  auto fs = fs::ExtFs::format(dev, 64);
  fs->create("/grow.bin");
  std::uint64_t off = 0;
  std::uint8_t seed = 0;
  std::vector<std::pair<std::uint64_t, util::Bytes>> probes;
  while (off < 3 * 1024 * 1024) {
    const auto chunk = payload(64 * 1024, ++seed);
    fs->write("/grow.bin", off, chunk);
    if (off % (512 * 1024) == 0) probes.emplace_back(off, chunk);
    off += chunk.size();
  }
  fs->sync();
  for (const auto& [pos, expect] : probes) {
    EXPECT_EQ(fs->read("/grow.bin", pos, expect.size()), expect)
        << "offset " << pos;
  }
  EXPECT_TRUE(fs->fsck());
}

TEST(FsEdge, DiskFullFailsCleanlyAndRecovers) {
  auto dev = std::make_shared<blockdev::MemBlockDevice>(512);  // 2 MiB
  auto fs = fs::ExtFs::format(dev, 64);
  bool filled = false;
  int written = 0;
  try {
    for (int i = 0; i < 100; ++i) {
      fs->write_file("/f" + std::to_string(i), payload(64 * 1024, i));
      ++written;
    }
  } catch (const util::NoSpaceError&) {
    filled = true;
  }
  EXPECT_TRUE(filled);
  EXPECT_GT(written, 5);
  // Remove something; the FS is usable again.
  fs->unlink("/f0");
  fs->write_file("/after.bin", payload(32 * 1024, 200));
  EXPECT_EQ(fs->read_file("/after.bin"), payload(32 * 1024, 200));
}

TEST(FsEdge, ZeroLengthFilesAndReads) {
  auto dev = std::make_shared<blockdev::MemBlockDevice>(1024);
  auto fs = fs::ExtFs::format(dev, 64);
  fs->create("/empty");
  EXPECT_EQ(fs->stat("/empty").size, 0u);
  EXPECT_TRUE(fs->read_file("/empty").empty());
  EXPECT_TRUE(fs->read("/empty", 100, 10).empty());  // past EOF
  fs->write("/empty", 0, {});                        // no-op write
  EXPECT_EQ(fs->stat("/empty").size, 0u);
}

TEST(FsEdge, RemountUnderCryptAfterHeavyChurn) {
  // The full pipeline a MobiCeal volume exercises: churn + sync + remount
  // through dm-crypt, contents intact, fsck clean.
  auto raw = std::make_shared<blockdev::MemBlockDevice>(8192);
  const util::Bytes key(16, 0x31);
  auto make_crypt = [&] {
    return std::make_shared<dm::CryptTarget>(raw, "aes-cbc-essiv:sha256",
                                             key);
  };
  {
    auto fs = fs::ExtFs::format(make_crypt(), 512);
    for (int round = 0; round < 4; ++round) {
      for (int i = 0; i < 25; ++i) {
        const std::string p = "/c" + std::to_string(i);
        if (fs->exists(p)) fs->unlink(p);
        fs->write_file(p, payload(10000 + i * 777, round * 25 + i));
      }
      fs->sync();
    }
  }
  auto fs = fs::ExtFs::mount(make_crypt());
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(fs->read_file("/c" + std::to_string(i)),
              payload(10000 + i * 777, 75 + i));
  }
  auto* ext = dynamic_cast<fs::ExtFs*>(fs.get());
  ASSERT_NE(ext, nullptr);
  EXPECT_TRUE(ext->fsck());
}

TEST(FsEdge, FatChainIntegrityAfterInterleavedChurn) {
  auto dev = std::make_shared<blockdev::MemBlockDevice>(4096);
  auto fs = fs::FatFs::format(dev);
  // Interleave writes to two files so their cluster chains interleave,
  // then delete one and verify the other's chain survived.
  fs->create("/a.bin");
  fs->create("/b.bin");
  for (int i = 0; i < 50; ++i) {
    fs->write("/a.bin", std::uint64_t(i) * 4096, payload(4096, 2 * i));
    fs->write("/b.bin", std::uint64_t(i) * 4096, payload(4096, 2 * i + 1));
  }
  fs->unlink("/a.bin");
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(fs->read("/b.bin", std::uint64_t(i) * 4096, 4096),
              payload(4096, 2 * i + 1))
        << i;
  }
  // Freed clusters are reusable without corrupting b.
  fs->write_file("/c.bin", payload(100 * 1024, 99));
  EXPECT_EQ(fs->read("/b.bin", 0, 4096), payload(4096, 1));
}

TEST(FsEdge, FatRejectsOperationsOnWrongTypes) {
  auto dev = std::make_shared<blockdev::MemBlockDevice>(2048);
  auto fs = fs::FatFs::format(dev);
  fs->mkdir("/dir");
  fs->create("/file");
  EXPECT_THROW(fs->write("/dir", 0, util::bytes_of("x")), util::FsError);
  EXPECT_THROW(fs->read("/dir", 0, 1), util::FsError);
  EXPECT_THROW(fs->list("/file"), util::FsError);
  EXPECT_THROW(fs->create("/file/child"), util::FsError);
}

TEST(FsEdge, ProbeDoesNotDisturbDeviceState) {
  auto dev = std::make_shared<blockdev::MemBlockDevice>(2048);
  fs::ExtFs::format(dev, 64)->sync();
  const auto before = dev->snapshot();
  EXPECT_TRUE(fs::ExtFs::probe(*dev));
  EXPECT_FALSE(fs::FatFs::probe(*dev));
  EXPECT_EQ(dev->snapshot(), before);  // probing is read-only
}

TEST(FsEdge, ExtDirectoryIoIsPinned) {
  // Every ExtFs directory operation (lookup, insert into a tombstone,
  // remove, empty check, list) over a directory that spans all ten direct
  // blocks and reaches into the indirect block, before and after a remount
  // (cold cache). The device command log and the final image are pinned by
  // hash: how the directory code walks its blocks may change, the device
  // reads and writes it causes may not.
  auto mem = std::make_shared<blockdev::MemBlockDevice>(4096);
  auto rec = std::make_shared<blockdev::RecordingDevice>(mem);
  const std::string long57(57, 'n');
  const std::string long58(58, 'n');
  {
    auto fs = fs::ExtFs::format(rec, 1024);
    fs->mkdir("/d");
    fs->mkdir("/d/sub");
    for (int i = 0; i < 700; ++i) fs->create("/d/f" + std::to_string(i));
    EXPECT_EQ(fs->list("/d").size(), 701u);
    fs->write_file("/d/f3", payload(5000, 3));
    fs->write_file("/d/f699", payload(9000, 699));
    EXPECT_TRUE(fs->exists("/d/f0"));
    EXPECT_TRUE(fs->exists("/d/f699"));
    EXPECT_FALSE(fs->exists("/d/f700"));
    EXPECT_FALSE(fs->exists("/d/f3/x"));  // a file is not a directory
    EXPECT_THROW(fs->list("/d/f3"), util::FsError);
    fs->create("/d/" + long57);
    EXPECT_TRUE(fs->exists("/d/" + long57));
    EXPECT_THROW(fs->create("/d/" + long58), util::FsError);
    EXPECT_FALSE(fs->exists("/d/" + long58));
    fs->unlink("/d/f10");  // tombstone in direct block 0
    EXPECT_FALSE(fs->exists("/d/f10"));
    fs->create("/d/again");  // lands in the tombstone
    EXPECT_THROW(fs->unlink("/d"), util::FsError);  // not empty
    fs->unlink("/d/sub");                            // empty
    EXPECT_EQ(fs->list("/d").size(), 701u);
    fs->sync();
  }
  // Cold cache: the first lookup matches in the first directory block and
  // must still read all eleven before the file data read that follows.
  auto fs = fs::ExtFs::mount(rec);
  EXPECT_TRUE(fs->exists("/d/f0"));
  EXPECT_EQ(fs->read_file("/d/f3"), payload(5000, 3));
  EXPECT_TRUE(fs->exists("/d/f699"));
  EXPECT_TRUE(fs->exists("/d/again"));
  EXPECT_FALSE(fs->exists("/d/f10"));
  EXPECT_FALSE(fs->exists("/d/" + long58));
  EXPECT_EQ(fs->read_file("/d/f699"), payload(9000, 699));
  const auto names = fs->list("/d");
  EXPECT_EQ(names.size(), 701u);
  EXPECT_EQ(names.front(), "f0");  // slot 0 ("sub") is a tombstone
  EXPECT_TRUE(std::find(names.begin(), names.end(), "again") != names.end());
  EXPECT_TRUE(fs->fsck());

  std::uint64_t log_hash = kFnvBasis;
  for (const auto& op : rec->ops()) {
    log_hash = fnv1a(log_hash, static_cast<std::uint64_t>(op.op));
    log_hash = fnv1a(log_hash, op.first);
    log_hash = fnv1a(log_hash, op.count);
  }
  std::uint64_t image_hash = kFnvBasis;
  const util::Bytes& image = mem->raw();
  for (std::size_t i = 0; i < image.size(); i += 8) {
    image_hash = fnv1a(image_hash, util::load_le<std::uint64_t>(&image[i]));
  }
  // Values of the copy-and-parse directory code this scan replaced.
  EXPECT_EQ(rec->ops().size(), 180u);
  EXPECT_EQ(log_hash, 0xA9B0A0D65CF4F144ULL);
  EXPECT_EQ(image_hash, 0x804D3404857A8C4EULL);
}

TEST(FsEdge, ExtSyncCutByAFaultLeavesTheRestDirty) {
  // sync() writes the dirty metadata blocks in ascending order. A device
  // fault part-way through leaves every block it did not write dirty, so
  // the next sync lands the same image a fault-free sync does.
  auto churn = [](fs::ExtFs& fs) {
    fs.mkdir("/d");
    for (int i = 0; i < 80; ++i) fs.create("/d/f" + std::to_string(i));
    fs.write_file("/d/f7", payload(3000, 7));
  };
  auto ref = std::make_shared<blockdev::MemBlockDevice>(1024);
  {
    auto fs = fs::ExtFs::format(ref, 256);
    churn(*fs);
    fs->sync();
  }
  auto mem = std::make_shared<blockdev::MemBlockDevice>(1024);
  auto faulty = std::make_shared<blockdev::FaultInjectedDevice>(
      mem, std::make_shared<blockdev::FaultInjector>(blockdev::FaultPlan{}));
  auto fs = fs::ExtFs::format(faulty, 256);
  churn(*fs);
  faulty->injector()->rearm_write_budget(2);
  EXPECT_THROW(fs->sync(), blockdev::InjectedFault);
  EXPECT_NE(mem->snapshot(), ref->snapshot());
  fs->sync();  // the fault disarmed the budget
  EXPECT_EQ(mem->snapshot(), ref->snapshot());
  EXPECT_TRUE(fs->fsck());
}
