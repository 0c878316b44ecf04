// cache::CacheTarget — read-through fill, LRU eviction, writeback
// coalescing/ordering, and the deniability-parity contract: with the cache
// on, the flushed device state is bit-identical to the uncached stack for
// every registered scheme (noise writes included).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/scheme_registry.hpp"
#include "blockdev/block_device.hpp"
#include "blockdev/recording_device.hpp"
#include "blockdev/timed_device.hpp"
#include "cache/cache_target.hpp"
#include "fs/run_coalescer.hpp"
#include "thin/thin_pool.hpp"
#include "util/error.hpp"

namespace mobiceal {
namespace {

using blockdev::kDefaultBlockSize;

using blockdev::DeviceOp;
using blockdev::IoOp;
using blockdev::RecordingDevice;

/// Lower-device writes (sync or submitted) as (first, count) runs, in
/// arrival order.
std::vector<std::pair<std::uint64_t, std::uint64_t>> write_runs(
    const RecordingDevice& rec) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> runs;
  for (const DeviceOp& d : rec.ops()) {
    if (d.op == IoOp::kWrite) runs.emplace_back(d.first, d.count);
  }
  return runs;
}

util::Bytes pattern_block(std::uint8_t tag) {
  util::Bytes b(kDefaultBlockSize, tag);
  return b;
}

struct CacheRig {
  std::shared_ptr<blockdev::MemBlockDevice> mem;
  std::shared_ptr<RecordingDevice> rec;
  std::shared_ptr<cache::CacheTarget> cache;
};

CacheRig make_rig(std::uint64_t capacity, cache::WritePolicy policy,
                  std::uint64_t device_blocks = 256) {
  CacheRig r;
  r.mem = std::make_shared<blockdev::MemBlockDevice>(device_blocks);
  r.rec = std::make_shared<RecordingDevice>(r.mem);
  cache::CacheConfig cfg;
  cfg.capacity_blocks = capacity;
  cfg.policy = policy;
  r.cache = std::make_shared<cache::CacheTarget>(r.rec, cfg);
  return r;
}

TEST(CacheTarget, ZeroCapacityIsRejectedButWrapBypasses) {
  auto mem = std::make_shared<blockdev::MemBlockDevice>(16);
  EXPECT_THROW(cache::CacheTarget(mem, cache::CacheConfig{}),
               util::PolicyError);
  EXPECT_EQ(cache::wrap(mem, cache::CacheConfig{}).get(), mem.get());
  cache::CacheConfig on;
  on.capacity_blocks = 4;
  EXPECT_NE(cache::wrap(mem, on).get(), mem.get());
}

TEST(CacheTarget, ReadThroughFillsAndServesRepeatsFromRam) {
  CacheRig r = make_rig(32, cache::WritePolicy::kWriteback);
  for (std::uint64_t b = 0; b < 8; ++b) {
    r.mem->write_block(b, pattern_block(static_cast<std::uint8_t>(b + 1)));
  }

  util::Bytes out(8 * kDefaultBlockSize);
  r.cache->read_blocks(0, 8, out);
  EXPECT_EQ(r.rec->blocks(IoOp::kRead), 8u);
  EXPECT_EQ(r.cache->counters().misses, 8u);
  EXPECT_EQ(r.cache->counters().fill_reads, 1u);  // one contiguous run

  // Re-read: served from RAM, no further lower I/O.
  util::Bytes again(8 * kDefaultBlockSize);
  r.cache->read_blocks(0, 8, again);
  EXPECT_EQ(out, again);
  EXPECT_EQ(r.rec->blocks(IoOp::kRead), 8u);
  EXPECT_EQ(r.cache->counters().hits, 8u);
  for (std::uint64_t b = 0; b < 8; ++b) {
    EXPECT_EQ(again[b * kDefaultBlockSize], b + 1);
  }
}

TEST(CacheTarget, PartialHitFetchesOnlyTheMissingRuns) {
  CacheRig r = make_rig(32, cache::WritePolicy::kWriteback);
  util::Bytes one(kDefaultBlockSize);
  r.cache->read_block(2, one);  // cache block 2
  ASSERT_EQ(r.rec->blocks(IoOp::kRead), 1u);

  // [0..5): misses {0,1} and {3,4} around the hit on 2 -> two fill runs.
  util::Bytes out(5 * kDefaultBlockSize);
  r.cache->read_blocks(0, 5, out);
  EXPECT_EQ(r.rec->blocks(IoOp::kRead), 5u);  // 1 + 4 missing blocks
  EXPECT_EQ(r.cache->counters().fill_reads, 3u);  // first + two runs
}

TEST(CacheTarget, LruEvictionDropsTheColdestBlock) {
  CacheRig r = make_rig(4, cache::WritePolicy::kWriteback);
  util::Bytes b(kDefaultBlockSize);
  for (std::uint64_t i = 0; i < 4; ++i) r.cache->read_block(i, b);
  r.cache->read_block(0, b);  // 0 becomes MRU; 1 is now coldest
  r.cache->read_block(9, b);  // forces one eviction
  EXPECT_EQ(r.cache->counters().evictions, 1u);

  const std::uint64_t before = r.rec->blocks(IoOp::kRead);
  r.cache->read_block(0, b);  // still cached
  EXPECT_EQ(r.rec->blocks(IoOp::kRead), before);
  r.cache->read_block(1, b);  // evicted: must re-fetch
  EXPECT_EQ(r.rec->blocks(IoOp::kRead), before + 1);
}

TEST(CacheTarget, WritebackAbsorbsWritesUntilFlush) {
  CacheRig r = make_rig(32, cache::WritePolicy::kWriteback);
  r.cache->write_block(5, pattern_block(0xAA));
  r.cache->write_block(6, pattern_block(0xBB));
  EXPECT_TRUE(write_runs(*r.rec).empty());
  EXPECT_EQ(r.cache->dirty_blocks(), 2u);

  // Reads of dirty blocks hit the cache (no stale lower data).
  util::Bytes out(kDefaultBlockSize);
  r.cache->read_block(5, out);
  EXPECT_EQ(out[0], 0xAA);
  EXPECT_EQ(r.mem->raw()[5 * kDefaultBlockSize], 0x00);  // not yet below

  r.cache->flush();
  EXPECT_EQ(r.cache->dirty_blocks(), 0u);
  ASSERT_EQ(write_runs(*r.rec).size(), 1u);  // 5 and 6 coalesced
  EXPECT_EQ(write_runs(*r.rec)[0], std::make_pair(std::uint64_t{5},
                                                 std::uint64_t{2}));
  EXPECT_EQ(r.mem->raw()[5 * kDefaultBlockSize], 0xAA);
  EXPECT_EQ(r.mem->raw()[6 * kDefaultBlockSize], 0xBB);
}

TEST(CacheTarget, WritebackRunsMatchRunCoalescerOnTheFirstDirtyOrder) {
  CacheRig r = make_rig(64, cache::WritePolicy::kWriteback);
  // Scattered first-dirty sequence: 10,11,12, 40, 13, 5,6, plus a rewrite
  // of 11 (already dirty: must NOT move in the replay order).
  const std::vector<std::uint64_t> sequence = {10, 11, 12, 40, 13, 5, 6};
  for (const std::uint64_t blk : sequence) {
    r.cache->write_block(blk, pattern_block(static_cast<std::uint8_t>(blk)));
  }
  r.cache->write_block(11, pattern_block(0xEE));
  r.cache->flush();

  // Reference: the exact runs fs::RunCoalescer emits for that sequence.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> expected;
  fs::RunCoalescer runs(kDefaultBlockSize,
                        [&](std::uint64_t first, std::uint64_t count,
                            std::size_t) {
                          expected.emplace_back(first, count);
                        });
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    runs.push(sequence[i], i * kDefaultBlockSize);
  }
  runs.flush();

  EXPECT_EQ(write_runs(*r.rec), expected);
  EXPECT_EQ(r.cache->counters().writeback_runs, expected.size());
  // The rewrite's content (not its position) is what lands.
  EXPECT_EQ(r.mem->raw()[11 * kDefaultBlockSize], 0xEE);
}

TEST(CacheTarget, DirtyEvictionFlushesTheWholeSetInFirstDirtyOrder) {
  CacheRig r = make_rig(4, cache::WritePolicy::kWriteback);
  for (const std::uint64_t blk : {7, 3, 9, 1}) {
    r.cache->write_block(blk, pattern_block(static_cast<std::uint8_t>(blk)));
  }
  ASSERT_TRUE(write_runs(*r.rec).empty());
  // Fifth distinct block: LRU victim (7) is dirty, so the whole dirty set
  // flushes as one epoch — in first-dirty order, not LRU or address order.
  r.cache->write_block(2, pattern_block(2));
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> expected = {
      {7, 1}, {3, 1}, {9, 1}, {1, 1}};
  EXPECT_EQ(write_runs(*r.rec), expected);
  EXPECT_EQ(r.cache->counters().epochs, 1u);
  EXPECT_EQ(r.cache->dirty_blocks(), 1u);  // just the new block 2
}

TEST(CacheTarget, WritethroughPreservesTheExactLowerWriteSequence) {
  CacheRig r = make_rig(16, cache::WritePolicy::kWritethrough);
  r.cache->write_block(4, pattern_block(1));
  util::Bytes two(2 * kDefaultBlockSize, 2);
  r.cache->write_blocks(8, two);
  r.cache->write_block(4, pattern_block(3));  // rewrite passes through too
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> expected = {
      {4, 1}, {8, 2}, {4, 1}};
  EXPECT_EQ(write_runs(*r.rec), expected);
  EXPECT_EQ(r.cache->dirty_blocks(), 0u);

  // And re-reads of written-then-read blocks still fill + hit.
  util::Bytes out(kDefaultBlockSize);
  r.cache->read_block(8, out);
  const std::uint64_t fetched = r.rec->blocks(IoOp::kRead);
  r.cache->read_block(8, out);
  EXPECT_EQ(r.rec->blocks(IoOp::kRead), fetched);
}

TEST(CacheTarget, SubmittedReadOfResidentBlockStaysInRam) {
  CacheRig r = make_rig(16, cache::WritePolicy::kWriteback);
  util::Bytes out(kDefaultBlockSize);
  r.cache->read_block(6, out);  // fill: the one lower read
  ASSERT_EQ(r.rec->ops().size(), 1u);

  blockdev::IoRequest req;
  req.op = blockdev::IoOp::kRead;
  req.first = 6;
  req.count = 1;
  util::Bytes got(kDefaultBlockSize, 0xEE);
  req.read_buf = got;
  r.cache->submit(req);
  r.cache->drain();
  EXPECT_EQ(got, out);
  EXPECT_EQ(r.rec->ops().size(), 1u);  // the lower device saw nothing new
  EXPECT_EQ(r.cache->counters().hits, 1u);
}

TEST(CacheTarget, SubmittedWritebackWriteReachesLowerOnlyAtFlush) {
  CacheRig r = make_rig(16, cache::WritePolicy::kWriteback);
  const util::Bytes two(2 * kDefaultBlockSize, 0x5A);
  blockdev::IoRequest req;
  req.op = blockdev::IoOp::kWrite;
  req.first = 9;
  req.count = 2;
  req.write_buf = two;
  r.cache->submit(req);
  r.cache->poll_completions();
  EXPECT_TRUE(r.rec->ops().empty());
  EXPECT_EQ(r.cache->dirty_blocks(), 2u);
  EXPECT_EQ(r.mem->raw()[9 * kDefaultBlockSize], 0);

  r.cache->flush();
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> expected = {
      {9, 2}};
  EXPECT_EQ(write_runs(*r.rec), expected);
  EXPECT_EQ(r.rec->commands(IoOp::kFlush), 1u);
  EXPECT_EQ(r.mem->raw()[9 * kDefaultBlockSize], 0x5A);
}

TEST(CacheTarget, DrainFlushesDirtyBlocksThroughTheAsyncEngine) {
  // Timed lower device at queue depth 4: the coalesced flush runs ride
  // submit() and the drain barrier completes them all.
  auto clock = std::make_shared<util::SimClock>();
  auto mem = std::make_shared<blockdev::MemBlockDevice>(256);
  auto timed = std::make_shared<blockdev::TimedDevice>(
      mem, blockdev::TimingModel::nexus4_emmc(), clock);
  timed->set_queue_depth(4);
  cache::CacheConfig cfg;
  cfg.capacity_blocks = 64;
  auto ct = std::make_shared<cache::CacheTarget>(timed, cfg, clock);

  for (const std::uint64_t blk : {10, 11, 30, 31, 50, 51}) {
    ct->write_block(blk, pattern_block(static_cast<std::uint8_t>(blk)));
  }
  EXPECT_EQ(timed->async_ios(), 0u);
  ct->drain();
  EXPECT_EQ(ct->dirty_blocks(), 0u);
  EXPECT_EQ(timed->async_ios(), 3u);  // three coalesced runs submitted
  for (const std::uint64_t blk : {10, 11, 30, 31, 50, 51}) {
    EXPECT_EQ(mem->raw()[blk * kDefaultBlockSize],
              static_cast<std::uint8_t>(blk));
  }
}

TEST(CacheTarget, FlushOnDrainOrderingUnderFragmentedExtents) {
  // Cache over a randomly-allocated thin volume: logically contiguous dirty
  // runs fragment into scattered physical chunks below the cache. Flush via
  // drain() must still land every block correctly.
  auto meta = std::make_shared<blockdev::MemBlockDevice>(512);
  auto data = std::make_shared<blockdev::MemBlockDevice>(2048);
  thin::ThinPool::Config pc;
  pc.chunk_blocks = 4;
  pc.max_volumes = 2;
  pc.policy = thin::AllocPolicy::kRandom;
  auto pool = thin::ThinPool::format(meta, data, pc);
  util::Xoshiro256 rng(7);
  pool->set_alloc_rng(&rng);
  pool->create_thin(0, pool->nr_chunks());
  auto vol = pool->open_thin(0);

  cache::CacheConfig cfg;
  cfg.capacity_blocks = 128;
  auto ct = std::make_shared<cache::CacheTarget>(vol, cfg);
  util::Bytes payload(40 * kDefaultBlockSize);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 131 / kDefaultBlockSize);
  }
  ct->write_blocks(3, payload);
  EXPECT_EQ(ct->dirty_blocks(), 40u);
  ct->drain();
  EXPECT_EQ(ct->dirty_blocks(), 0u);

  // Read back through the *volume* (below the cache): the fragmented
  // physical layout holds exactly the payload.
  util::Bytes back(payload.size());
  vol->read_blocks(3, 40, back);
  EXPECT_EQ(back, payload);
}

// ---- deniability parity across every registered scheme -------------------------

util::Bytes file_payload(std::size_t n, std::uint8_t salt) {
  util::Bytes data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::uint8_t>(salt + i * 7);
  }
  return data;
}

/// Runs the same fs workload (writes, rewrites, re-reads, metadata churn)
/// against a freshly initialised scheme and returns the final device image
/// after reboot() (sync + cache flush + unmount).
util::Bytes scheme_final_image(const std::string& name,
                               std::uint64_t cache_blocks) {
  auto disk = std::make_shared<blockdev::MemBlockDevice>(24576);  // 96 MiB
  api::SchemeOptions opts;
  opts.device = disk;
  opts.public_password = "pub";
  if (api::SchemeRegistry::entry(name).capabilities.has(
          api::Capability::kHiddenVolume)) {
    opts.hidden_passwords = {"hid"};
  }
  opts.rng_seed = 99;
  opts.skip_random_fill = true;
  opts.stack.cache_blocks = cache_blocks;
  opts.stack.cache_writeback = true;  // demoted per scheme capability

  auto scheme = api::SchemeRegistry::create(name, opts);
  EXPECT_TRUE(scheme->unlock("pub").ok) << name;
  auto& fs = scheme->data_fs();

  fs.mkdir("/d");
  fs.write_file("/d/a.bin", file_payload(300 * 1024, 1));
  fs.write_file("/b.bin", file_payload(90 * 1024, 2));
  // Rewrite part of an existing file (write combining on safe schemes).
  fs.write("/d/a.bin", 64 * 1024, file_payload(32 * 1024, 3));
  // Metadata churn + re-reads (cache hits on the second pass).
  for (int i = 0; i < 8; ++i) {
    fs.write_file("/d/small" + std::to_string(i) + ".bin",
                  file_payload(4096, static_cast<std::uint8_t>(i)));
  }
  fs.unlink("/d/small3.bin");
  (void)fs.read_file("/d/a.bin");
  (void)fs.read_file("/d/a.bin");
  scheme->reboot();
  return disk->snapshot();
}

class CacheParity : public ::testing::TestWithParam<std::string> {};

TEST_P(CacheParity, CachedFinalStateBitIdenticalToUncached) {
  const std::string scheme = GetParam();
  const util::Bytes uncached = scheme_final_image(scheme, 0);
  const util::Bytes cached = scheme_final_image(scheme, 512);
  ASSERT_EQ(uncached.size(), cached.size());
  EXPECT_TRUE(uncached == cached)
      << scheme << ": cache perturbed the on-flash state";
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, CacheParity,
    ::testing::ValuesIn(api::SchemeRegistry::names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(CacheParity, MobiCealHiddenModeWithNoiseWritesStaysBitIdentical) {
  // Hidden-volume workload with dummy writes live (lambda high so bursts
  // definitely fire): noise rides below the cache, parity must hold.
  auto run = [](std::uint64_t cache_blocks) {
    auto disk = std::make_shared<blockdev::MemBlockDevice>(24576);
    api::SchemeOptions opts;
    opts.device = disk;
    opts.public_password = "pub";
    opts.hidden_passwords = {"hid"};
    opts.rng_seed = 1234;
    opts.lambda = 0.25;  // bigger bursts
    opts.stack.cache_blocks = cache_blocks;

    auto scheme = api::SchemeRegistry::create("mobiceal", opts);
    EXPECT_TRUE(scheme->unlock("pub").ok);
    scheme->data_fs().write_file("/decoy.bin", file_payload(200 * 1024, 9));
    EXPECT_TRUE(scheme->switch_volume("hid"));
    scheme->data_fs().write_file("/secret.bin", file_payload(150 * 1024, 4));
    scheme->data_fs().write("/secret.bin", 8192, file_payload(8192, 5));
    (void)scheme->data_fs().read_file("/secret.bin");
    scheme->reboot();
    return disk->snapshot();
  };
  EXPECT_TRUE(run(0) == run(512));
}

}  // namespace
}  // namespace mobiceal
