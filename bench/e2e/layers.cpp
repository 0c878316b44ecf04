#include "layers.hpp"

#include <algorithm>
#include <memory>

#include "blockdev/block_device.hpp"
#include "cache/cache_target.hpp"
#include "crypto/crypto_pool.hpp"
#include "crypto/kdf.hpp"
#include "crypto/random.hpp"
#include "dm/crypt_target.hpp"
#include "fs/ext_fs.hpp"
#include "ftl/ftl_device.hpp"
#include "thin/thin_pool.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/sim_clock.hpp"

namespace mobiceal::e2e {

namespace {

constexpr std::uint64_t kBlock = 4096;
constexpr std::uint64_t kDdRequestBlocks = 256;  // 1 MiB

/// Median over `trials` of fn(), which times its own work and returns the
/// cost per unit.
template <class F>
double median_of(int trials, F&& fn) {
  std::vector<double> v;
  for (int t = 0; t < trials; ++t) v.push_back(fn());
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double since_ns(std::uint64_t t0) {
  return static_cast<double>(host_now_ns() - t0);
}

/// A formatted thin pool over RAM with MobiCeal's geometry (64 KiB chunks,
/// 8 volumes) and its random allocation policy; no CPU model, no clock.
struct Pool {
  std::shared_ptr<thin::ThinPool> pool;
  util::Xoshiro256 rng{11};

  explicit Pool(std::uint64_t nr_chunks) {
    thin::Superblock est;
    est.chunk_blocks = 16;
    est.max_volumes = 8;
    est.nr_chunks = nr_chunks;
    est.max_chunks_per_volume = nr_chunks;
    const auto geom = thin::MetadataGeometry::compute(est, kBlock);
    thin::ThinPool::Config cfg;
    cfg.chunk_blocks = 16;
    cfg.max_volumes = 8;
    cfg.policy = thin::AllocPolicy::kRandom;
    cfg.cpu = thin::ThinCpuModel::zero();
    pool = thin::ThinPool::format(
        std::make_shared<blockdev::MemBlockDevice>(geom.total_blocks),
        std::make_shared<blockdev::MemBlockDevice>(nr_chunks * 16), cfg);
    pool->set_alloc_rng(&rng);
    for (std::uint32_t id = 0; id < 8; ++id) pool->create_thin(id, nr_chunks);
  }
};

}  // namespace

std::vector<LayerMetric> run_layer_probes(bool smoke) {
  const int trials = smoke ? 1 : 5;
  std::vector<LayerMetric> out;
  const auto add = [&out](const char* name, const char* unit, double v) {
    out.push_back({name, unit, v});
  };
  const util::Bytes one(kBlock, 0x17);

  // dm-crypt (ESSIV-CBC) at the dd request shape and at app_fsync's single
  // block, on one thread.
  {
    const std::uint64_t blocks = smoke ? 512 : 2048;
    dm::CryptTarget crypt(std::make_shared<blockdev::MemBlockDevice>(blocks),
                          "aes-cbc-essiv:sha256", util::Bytes(16, 0x42),
                          nullptr, dm::CryptCpuModel::snapdragon_s4(),
                          std::make_shared<crypto::CryptoWorkerPool>(0));
    util::Bytes buf(kDdRequestBlocks * kBlock, 0x5a);
    add("crypt.write_ns_per_block_1m", "ns", median_of(trials, [&] {
          const std::uint64_t t0 = host_now_ns();
          for (std::uint64_t b = 0; b < blocks; b += kDdRequestBlocks) {
            crypt.write_blocks(b, buf);
          }
          return since_ns(t0) / static_cast<double>(blocks);
        }));
    add("crypt.read_ns_per_block_1m", "ns", median_of(trials, [&] {
          const std::uint64_t t0 = host_now_ns();
          for (std::uint64_t b = 0; b < blocks; b += kDdRequestBlocks) {
            crypt.read_blocks(b, kDdRequestBlocks, buf);
          }
          return since_ns(t0) / static_cast<double>(blocks);
        }));
    const std::uint64_t singles = blocks / 4;
    add("crypt.write_ns_per_block_4k", "ns", median_of(trials, [&] {
          const std::uint64_t t0 = host_now_ns();
          for (std::uint64_t b = 0; b < singles; ++b) crypt.write_block(b, one);
          return since_ns(t0) / static_cast<double>(singles);
        }));
  }

  // Dummy-write noise (ChaCha20 keystream, one block) and the password KDF
  // every unlock and switch runs.
  {
    crypto::SecureRandom rng(7);
    util::Bytes block(kBlock);
    const int n = smoke ? 256 : 2048;
    add("crypto.noise_ns_per_block", "ns", median_of(trials, [&] {
          const std::uint64_t t0 = host_now_ns();
          for (int i = 0; i < n; ++i) rng.fill_bytes(block);
          return since_ns(t0) / n;
        }));
    const util::Bytes password = util::bytes_of("e2e-public");
    const util::Bytes salt(16, 0x33);
    add("crypto.pbkdf2_ms", "ms", median_of(trials, [&] {
          const std::uint64_t t0 = host_now_ns();
          crypto::pbkdf2(crypto::HashAlg::kSha1, password, salt,
                         crypto::kAndroidPbkdf2Iterations, 32);
          return since_ns(t0) / 1e6;
        }));
  }

  // Thin pool: first-touch writes that each provision a random chunk (the
  // dd shape), and the metadata commit behind every fsync on a pool
  // populated like app_fsync's.
  {
    const std::uint64_t chunks = smoke ? 128 : 512;
    add("thin.alloc_ns_per_chunk", "ns", median_of(trials, [&] {
          Pool p(chunks);
          auto vol = p.pool->open_thin(0);
          const std::uint64_t t0 = host_now_ns();
          for (std::uint64_t v = 0; v < chunks / 2; ++v) {
            vol->write_block(v * 16, one);
          }
          return since_ns(t0) / static_cast<double>(chunks / 2);
        }));

    Pool p(smoke ? 512 : 2048);                     // 128 MiB
    const std::uint64_t mapped = smoke ? 40 : 300;  // ~19 MiB in use
    auto vol = p.pool->open_thin(0);
    for (std::uint64_t v = 0; v < mapped; ++v) vol->write_block(v * 16, one);
    p.pool->commit();
    const int commits = smoke ? 20 : 200;
    add("thin.commit_ns", "ns", median_of(trials, [&] {
          std::uint64_t ns = 0;
          for (int i = 0; i < commits; ++i) {
            vol->write_block((i % mapped) * 16 + 1, one);
            const std::uint64_t t0 = host_now_ns();
            p.pool->commit();
            ns += host_now_ns() - t0;
          }
          return static_cast<double>(ns) / commits;
        }));
  }

  // The file system alone, replaying app_fsync's op mix: 4 KiB overwrite
  // plus sync, and whole-file reads of 4-32 KiB files in one directory.
  {
    auto fs = fs::ExtFs::format(
        std::make_shared<blockdev::MemBlockDevice>(smoke ? 2048 : 8192), 2048);
    const std::uint64_t files = smoke ? 60 : 900;
    util::Xoshiro256 rng(5);
    std::vector<std::uint64_t> sizes;
    const auto path = [](std::uint64_t f) {
      return "/app/f" + std::to_string(f);
    };
    fs->mkdir("/app");
    for (std::uint64_t f = 0; f < files; ++f) {
      sizes.push_back((1 + rng.next_below(8)) * kBlock);
      fs->write_file(path(f), util::Bytes(sizes.back(), 1));
    }
    fs->sync();
    const int ops = smoke ? 100 : 2000;
    add("fs.write_sync_ns", "ns", median_of(trials, [&] {
          const std::uint64_t t0 = host_now_ns();
          for (int i = 0; i < ops; ++i) {
            const std::uint64_t f = rng.next_below(files);
            fs->write(path(f), rng.next_below(sizes[f] / kBlock) * kBlock, one);
            fs->sync();
          }
          return since_ns(t0) / ops;
        }));
    add("fs.read_file_ns", "ns", median_of(trials, [&] {
          const std::uint64_t t0 = host_now_ns();
          for (int i = 0; i < ops; ++i) {
            const std::uint64_t f = rng.next_below(files);
            fs->read(path(f), 0, sizes[f]);
          }
          return since_ns(t0) / ops;
        }));
  }

  // Writeback cache: re-reads of resident blocks in 8-block runs.
  {
    const std::uint64_t resident = smoke ? 256 : 1024;
    cache::CacheConfig cfg;
    cfg.capacity_blocks = resident;
    cache::CacheTarget cache(
        std::make_shared<blockdev::MemBlockDevice>(resident * 2), cfg);
    util::Bytes buf(resident * kBlock);
    cache.read_blocks(0, resident, buf);
    util::Bytes run(8 * kBlock);
    const int rounds = smoke ? 4 : 32;
    add("cache.hit_ns_per_block", "ns", median_of(trials, [&] {
          const std::uint64_t t0 = host_now_ns();
          for (int r = 0; r < rounds; ++r) {
            for (std::uint64_t b = 0; b < resident; b += 8) {
              cache.read_blocks(b, 8, run);
            }
          }
          return since_ns(t0) / static_cast<double>(rounds * resident);
        }));
  }

  // FTL: ftl_gc's 8 KiB rewrites over a pseudo-random half of a full
  // device, so GC relocates pages.
  {
    const std::uint64_t pages = smoke ? 1024 : 8192;
    add("ftl.host_ns_per_page", "ns", median_of(trials, [&] {
          ftl::FtlConfig cfg;
          cfg.logical_blocks = pages;
          cfg.timing = ftl::FlashTimingModel::mlc_nand();
          auto dev =
              ftl::FtlDevice::create(cfg, std::make_shared<util::SimClock>());
          const util::Bytes fill(kDdRequestBlocks * kBlock, 0x21);
          for (std::uint64_t b = 0; b < pages; b += kDdRequestBlocks) {
            dev->write_blocks(b, fill);
          }
          util::Xoshiro256 rng(9);
          const util::Bytes two(2 * kBlock, 0x3c);
          std::uint64_t written = 0;
          const std::uint64_t t0 = host_now_ns();
          for (int pass = 0; pass < 4; ++pass) {
            for (std::uint64_t b = 0; b + 2 <= pages; b += 2) {
              if (rng.next_below(2) != 0) continue;
              dev->write_blocks(b, two);
              written += 2;
            }
          }
          return since_ns(t0) / static_cast<double>(written);
        }));
  }

  // Backing store: construction plus a first write per block, per GiB.
  {
    const std::uint64_t blocks = smoke ? 4096 : 16384;
    const double gib = static_cast<double>(blocks * kBlock) / (1ull << 30);
    add("blockdev.alloc_ms_per_gib", "ms", median_of(trials, [&] {
          const std::uint64_t t0 = host_now_ns();
          blockdev::MemBlockDevice mem(blocks);
          for (std::uint64_t b = 0; b < blocks; ++b) mem.write_block(b, one);
          return since_ns(t0) / 1e6 / gib;
        }));
  }
  return out;
}

}  // namespace mobiceal::e2e
