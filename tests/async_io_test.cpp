// Async submit/complete engine tests: the BlockDevice submit shim, the
// TimedDevice queue-depth model (exact virtual-time math, completion
// ordering, implicit sync barriers), async-vs-sync state equivalence across
// every registered scheme, deterministic replay at every queue depth and
// crypto worker-thread count, the crypto worker pool, and the per-volume
// range locks.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "api/scheme_registry.hpp"
#include "blockdev/block_device.hpp"
#include "blockdev/timed_device.hpp"
#include "core/dummy_write.hpp"
#include "crypto/crypto_pool.hpp"
#include "crypto/random.hpp"
#include "dm/crypt_target.hpp"
#include "dm/striped_target.hpp"
#include "thin/range_lock.hpp"
#include "thin/thin_pool.hpp"
#include "util/clock_domain.hpp"
#include "util/error.hpp"

using namespace mobiceal;
using blockdev::IoOp;
using blockdev::IoRequest;

namespace {

constexpr std::size_t kBs = blockdev::kDefaultBlockSize;

util::Bytes pattern(std::size_t n, std::uint8_t salt) {
  util::Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(salt + i * 131);
  }
  return out;
}

/// Toy model with round numbers so completion times can be asserted
/// exactly: command 10 ns, read 1000 ns/blk, write 2000 ns/blk, random
/// penalties 1000/2000 ns, flush 5000 ns.
blockdev::TimingModel toy_model() {
  blockdev::TimingModel m;
  m.per_io_ns = 10;
  m.read_per_block_ns = 1000;
  m.write_per_block_ns = 2000;
  m.random_read_penalty_ns = 1000;
  m.random_write_penalty_ns = 2000;
  m.flush_ns = 5000;
  return m;
}

struct TimedFixture {
  std::shared_ptr<util::SimClock> clock;
  std::shared_ptr<blockdev::MemBlockDevice> mem;
  std::shared_ptr<blockdev::TimedDevice> dev;

  explicit TimedFixture(std::uint32_t depth, std::uint64_t blocks = 256) {
    clock = std::make_shared<util::SimClock>();
    mem = std::make_shared<blockdev::MemBlockDevice>(blocks);
    dev = std::make_shared<blockdev::TimedDevice>(mem, toy_model(), clock);
    dev->set_queue_depth(depth);
  }
};

IoRequest read_req(std::uint64_t first, std::uint64_t count,
                   util::MutByteSpan buf, std::uint64_t cookie = 0) {
  IoRequest r;
  r.op = IoOp::kRead;
  r.first = first;
  r.count = count;
  r.read_buf = buf;
  r.user_data = cookie;
  return r;
}

IoRequest write_req(std::uint64_t first, util::ByteSpan buf,
                    std::uint64_t cookie = 0) {
  IoRequest r;
  r.op = IoOp::kWrite;
  r.first = first;
  r.count = buf.size() / kBs;
  r.write_buf = buf;
  r.user_data = cookie;
  return r;
}

}  // namespace

// ---- base shim ---------------------------------------------------------------

TEST(AsyncEngine, SyncShimRoundTripsDataAndCompletesInstantly) {
  blockdev::MemBlockDevice dev(64);
  const util::Bytes data = pattern(4 * kBs, 7);
  const auto w = dev.submit(write_req(8, data, /*cookie=*/11));
  EXPECT_EQ(w.complete_ns, 0u);

  util::Bytes out(4 * kBs);
  dev.submit(read_req(8, 4, out, /*cookie=*/22));
  EXPECT_EQ(out, data);  // data moved at submit time

  const auto done = dev.poll_completions();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].user_data, 11u);  // ties broken by submission ticket
  EXPECT_EQ(done[1].user_data, 22u);
  EXPECT_LT(done[0].ticket, done[1].ticket);
  EXPECT_TRUE(dev.poll_completions().empty());  // reaped exactly once
}

TEST(AsyncEngine, SubmitValidatesLikeSyncEntryPoints) {
  blockdev::MemBlockDevice dev(16);
  util::Bytes buf(4 * kBs);
  EXPECT_THROW(dev.submit(read_req(14, 4, buf)), util::IoError);  // range
  IoRequest bad = write_req(0, {buf.data(), 2 * kBs});
  bad.count = 3;  // size != count * bs
  EXPECT_THROW(dev.submit(bad), util::IoError);
  EXPECT_TRUE(dev.poll_completions().empty());  // nothing enqueued
}

TEST(AsyncEngine, QueueDepthHintDefaultsToOneAndClamps) {
  blockdev::MemBlockDevice dev(16);
  EXPECT_EQ(dev.queue_depth(), 1u);
  dev.set_queue_depth(0);
  EXPECT_EQ(dev.queue_depth(), 1u);
  dev.set_queue_depth(8);
  EXPECT_EQ(dev.queue_depth(), 8u);
}

// ---- TimedDevice queue-depth model -------------------------------------------

TEST(QueueDepthModel, TransfersOverlapButCommandsStaySerial) {
  // Four 4-block random reads: commands serialise at 1010 ns each (10 +
  // 1000 penalty); transfers (4000 ns) overlap on 4 slots.
  TimedFixture f(/*depth=*/4);
  util::Bytes buf(16 * kBs);
  std::uint64_t done[4];
  for (int i = 0; i < 4; ++i) {
    done[i] = f.dev
                  ->submit(read_req(static_cast<std::uint64_t>(i) * 32, 4,
                                    {buf.data() + i * 4 * kBs, 4 * kBs}))
                  .complete_ns;
  }
  EXPECT_EQ(done[0], 1010u + 4000u);
  EXPECT_EQ(done[1], 2020u + 4000u);
  EXPECT_EQ(done[2], 3030u + 4000u);
  EXPECT_EQ(done[3], 4040u + 4000u);

  // Same four requests at depth 1 serialise their transfers too.
  TimedFixture g(/*depth=*/1);
  std::uint64_t serial_done = 0;
  for (int i = 0; i < 4; ++i) {
    serial_done = g.dev
                      ->submit(read_req(static_cast<std::uint64_t>(i) * 32, 4,
                                        {buf.data() + i * 4 * kBs, 4 * kBs}))
                      .complete_ns;
  }
  EXPECT_EQ(serial_done, 1010u + 4 * 4000u + 3 * 1010u);
  EXPECT_GT(serial_done, done[3]);
  EXPECT_EQ(f.dev->async_ios(), 4u);
  EXPECT_EQ(f.dev->random_ios(), 4u);
}

TEST(QueueDepthModel, DrainAdvancesClockToLastCompletion) {
  TimedFixture f(/*depth=*/4);
  util::Bytes buf(16 * kBs);
  for (int i = 0; i < 4; ++i) {
    f.dev->submit(read_req(static_cast<std::uint64_t>(i) * 32, 4,
                           {buf.data() + i * 4 * kBs, 4 * kBs}));
  }
  EXPECT_EQ(f.clock->now(), 0u);                  // nothing awaited yet
  EXPECT_TRUE(f.dev->poll_completions().empty());  // none ready at t=0
  const auto all = f.dev->drain();
  EXPECT_EQ(f.clock->now(), 8040u);
  ASSERT_EQ(all.size(), 4u);
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LE(all[i - 1].complete_ns, all[i].complete_ns);
  }
}

TEST(QueueDepthModel, CompletionsDeliverInVirtualTimeOrderNotSubmission) {
  // A 16-block read followed by a sequential 1-block read at depth 2: the
  // small transfer finishes long before the big one.
  TimedFixture f(/*depth=*/2);
  util::Bytes big(16 * kBs), small(kBs);
  const auto r1 = f.dev->submit(read_req(0, 16, big, /*cookie=*/1));
  const auto r2 = f.dev->submit(read_req(16, 1, small, /*cookie=*/2));
  EXPECT_LT(r2.complete_ns, r1.complete_ns);
  const auto all = f.dev->drain();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].user_data, 2u);
  EXPECT_EQ(all[1].user_data, 1u);
}

TEST(QueueDepthModel, SyncIoIsAnImplicitBarrier) {
  TimedFixture f(/*depth=*/8);
  util::Bytes buf(16 * kBs);
  std::uint64_t last = 0;
  for (int i = 0; i < 4; ++i) {
    last = f.dev
               ->submit(read_req(static_cast<std::uint64_t>(i) * 32, 4,
                                 {buf.data() + i * 4 * kBs, 4 * kBs}))
               .complete_ns;
  }
  // A synchronous read while 4 requests are in flight waits them out
  // first, then pays its own (sequential) service time.
  util::Bytes one(kBs);
  f.dev->read_block(140, one);
  EXPECT_EQ(f.clock->now(), last + 10 + 1000 + 1000);  // barrier + random 1-blk
}

TEST(QueueDepthModel, FlushIsABarrierOnTheSubmitPath) {
  TimedFixture f(/*depth=*/4);
  util::Bytes buf(8 * kBs);
  const auto r1 = f.dev->submit(write_req(0, buf));
  IoRequest fl;
  fl.op = IoOp::kFlush;
  const auto r2 = f.dev->submit(fl);
  EXPECT_EQ(r2.complete_ns, r1.complete_ns + 5000u);
  // The next request cannot start its command before the flush completed;
  // it is sequential to the first write (cmd 10 ns), then transfers.
  const auto r3 = f.dev->submit(write_req(8, buf));
  EXPECT_EQ(r3.complete_ns, r2.complete_ns + 10u + 8 * 2000u);
}

TEST(QueueDepthModel, AvailableNsDefersServiceStart) {
  TimedFixture f(/*depth=*/4);
  util::Bytes buf(4 * kBs);
  IoRequest r = write_req(0, buf);
  r.available_ns = 100'000;  // ciphertext "ready" far in the future
  const auto res = f.dev->submit(r);
  EXPECT_EQ(res.complete_ns, 100'000u + 10 + 2000 + 4 * 2000u);
}

TEST(QueueDepthModel, DepthOneAsyncMatchesSyncTotals) {
  // The same request train costs the same virtual time through the async
  // engine at depth 1 as through the classic synchronous vectored path.
  TimedFixture async_f(/*depth=*/1);
  util::Bytes buf(8 * kBs);
  for (int i = 0; i < 3; ++i) {
    async_f.dev->submit(
        write_req(static_cast<std::uint64_t>(i) * 8, buf));
  }
  async_f.dev->drain();

  TimedFixture sync_f(/*depth=*/1);
  for (int i = 0; i < 3; ++i) {
    sync_f.dev->write_blocks(static_cast<std::uint64_t>(i) * 8, buf);
  }
  EXPECT_EQ(async_f.clock->now(), sync_f.clock->now());
}

// ---- thin-pool fan-out -------------------------------------------------------

namespace {

struct AsyncPoolFixture {
  std::shared_ptr<util::SimClock> clock;
  std::shared_ptr<blockdev::MemBlockDevice> meta, mem;
  std::shared_ptr<blockdev::TimedDevice> data;
  std::shared_ptr<thin::ThinPool> pool;

  AsyncPoolFixture(thin::AllocPolicy policy, std::uint32_t depth,
                   std::uint64_t data_blocks = 2048,
                   std::uint32_t chunk_blocks = 4) {
    clock = std::make_shared<util::SimClock>();
    meta = std::make_shared<blockdev::MemBlockDevice>(512);
    mem = std::make_shared<blockdev::MemBlockDevice>(data_blocks);
    data = std::make_shared<blockdev::TimedDevice>(mem, toy_model(), clock);
    data->set_queue_depth(depth);
    thin::ThinPool::Config cfg;
    cfg.chunk_blocks = chunk_blocks;
    cfg.max_volumes = 8;
    cfg.policy = policy;
    cfg.cpu = thin::ThinCpuModel::zero();
    pool = thin::ThinPool::format(meta, data, cfg, clock);
  }
};

}  // namespace

TEST(AsyncThinPool, FragmentedExtentRunsCompleteInVirtualTimeOrder) {
  AsyncPoolFixture f(thin::AllocPolicy::kSequential, /*depth=*/4);
  f.pool->create_thin(0, 16);
  auto vol = f.pool->open_thin(0);
  // Provision out of order so logical order is physically fragmented:
  // vchunk 0 -> phys 0, vchunk 2 -> phys 1, vchunk 1 -> phys 2.
  vol->write_block(0 * 4, pattern(kBs, 1));
  vol->write_block(2 * 4, pattern(kBs, 2));
  vol->write_block(1 * 4, pattern(kBs, 3));
  f.data->drain();
  f.data->reset_counters();

  // One spanning read fans out into 3 runs; with depth 4 their transfers
  // overlap and completions surface in virtual-time order.
  util::Bytes out(12 * kBs);
  vol->read_blocks(0, 12, out);
  EXPECT_EQ(f.data->async_ios(), 3u);
  const auto done = f.data->poll_completions();
  EXPECT_TRUE(done.empty());  // volume path drained its own completions

  // Equivalent per-block read returns identical bytes.
  util::Bytes ref(12 * kBs);
  for (std::uint64_t i = 0; i < 12; ++i) {
    vol->read_block(i, {ref.data() + i * kBs, kBs});
  }
  EXPECT_EQ(out, ref);
}

TEST(AsyncThinPool, HolesZeroFillAndMappedRunsLand) {
  AsyncPoolFixture f(thin::AllocPolicy::kSequential, /*depth=*/8);
  f.pool->create_thin(0, 4);
  auto vol = f.pool->open_thin(0);
  const util::Bytes w = pattern(4 * kBs, 17);
  vol->write_blocks(4, w);  // vchunk 1 only; 0, 2, 3 stay holes

  const util::Bytes all = vol->read_blocks(0, 16);
  EXPECT_EQ(util::Bytes(all.begin(), all.begin() + 4 * kBs),
            util::Bytes(4 * kBs, 0));
  EXPECT_EQ(util::Bytes(all.begin() + 4 * kBs, all.begin() + 8 * kBs), w);
  EXPECT_EQ(util::Bytes(all.begin() + 8 * kBs, all.end()),
            util::Bytes(8 * kBs, 0));
}

TEST(AsyncThinPool, QueueDepthSpeedsUpFragmentedReads) {
  auto run = [](std::uint32_t depth) {
    AsyncPoolFixture f(thin::AllocPolicy::kRandom, depth, 4096, 4);
    f.pool->create_thin(0, 64);
    auto vol = f.pool->open_thin(0);
    const util::Bytes data = pattern(256 * kBs, 5);
    vol->write_blocks(0, data);
    f.data->drain();
    const std::uint64_t t0 = f.clock->now();
    util::Bytes out(256 * kBs);
    vol->read_blocks(0, 256, out);
    EXPECT_EQ(out, data);
    return f.clock->now() - t0;
  };
  const std::uint64_t qd1 = run(1), qd2 = run(2), qd8 = run(8);
  EXPECT_LT(qd8, qd2);
  EXPECT_LT(qd2, qd1);
  EXPECT_GE(qd1, qd8 * 2);  // random-placement chunks overlap heavily
}

// ---- dummy writes ride the queue ---------------------------------------------

namespace {

struct MobiCealishStack {
  std::unique_ptr<crypto::SecureRandom> rng;
  std::unique_ptr<core::DummyWriteEngine> engine;
  std::shared_ptr<AsyncPoolFixture> f;
  std::shared_ptr<thin::ThinVolume> vol;

  explicit MobiCealishStack(std::uint32_t depth) {
    f = std::make_shared<AsyncPoolFixture>(thin::AllocPolicy::kRandom, depth,
                                           4096, 4);
    rng = std::make_unique<crypto::SecureRandom>(42);
    core::DummyWriteConfig dc;
    dc.num_volumes = 4;
    dc.x = 10;
    engine = std::make_unique<core::DummyWriteEngine>(dc, *rng, nullptr);
    for (std::uint32_t id = 0; id < 4; ++id) f->pool->create_thin(id, 64);
    f->pool->set_alloc_rng(rng.get());
    f->pool->observe_volume(0, true);
    thin::ThinPool* pool = f->pool.get();
    core::DummyWriteEngine* eng = engine.get();
    f->pool->set_allocation_observer(
        [pool, eng](std::uint32_t, std::uint64_t) {
          eng->on_public_allocation(*pool);
        });
    vol = f->pool->open_thin(0);
  }
};

}  // namespace

TEST(AsyncEquivalence, DummyNoiseRidesTheQueueWithIdenticalState) {
  MobiCealishStack a(/*depth=*/1), b(/*depth=*/8);
  const util::Bytes data = pattern(128 * kBs, 9);
  a.vol->write_blocks(0, data);
  b.vol->write_blocks(0, data);
  b.f->data->drain();

  // Same triggers, same noise, same placement — bit-identical devices —
  // while the deep queue finishes sooner (noise overlaps client writes).
  EXPECT_GT(a.engine->stats().triggers, 0u);
  EXPECT_EQ(a.engine->stats().chunks_written, b.engine->stats().chunks_written);
  EXPECT_EQ(a.f->mem->raw(), b.f->mem->raw());
  EXPECT_LT(b.f->clock->now(), a.f->clock->now());
  EXPECT_GT(b.f->data->async_ios(), 0u);
}

// ---- dm-crypt pipelining -----------------------------------------------------

TEST(AsyncCrypt, PipelinedCiphertextMatchesSerialPath) {
  crypto::SecureRandom rng(7);
  const util::Bytes key = rng.bytes(32);
  for (const char* spec : {"aes-cbc-essiv:sha256", "aes-xts-plain64"}) {
    TimedFixture deep(/*depth=*/8, 512);
    auto serial_mem = std::make_shared<blockdev::MemBlockDevice>(512);
    dm::CryptTarget piped(deep.dev, spec, key, deep.clock);
    dm::CryptTarget serial(serial_mem, spec, key);

    const util::Bytes data = pattern(200 * kBs, 3);
    piped.write_blocks(5, data);    // > kPipelineBlocks: pipelined path
    serial.write_blocks(5, data);
    EXPECT_EQ(deep.mem->raw(), serial_mem->raw()) << spec;

    util::Bytes rd(200 * kBs);
    piped.read_blocks(5, 200, rd);  // pipelined read path
    EXPECT_EQ(rd, data) << spec;
  }
}

TEST(AsyncCrypt, CryptoOverlapsDeviceServiceOnTheVirtualClock) {
  crypto::SecureRandom rng(7);
  const util::Bytes key = rng.bytes(32);
  const util::Bytes data = pattern(256 * kBs, 3);
  // aesni model: 2 µs/blk cipher vs 2 µs/blk device write — a balanced
  // pipeline, where overlap should reclaim a large chunk of cipher time.
  auto run = [&](std::uint32_t depth) {
    TimedFixture f(depth, 1024);
    dm::CryptTarget crypt(f.dev, "aes-xts-plain64", key, f.clock,
                          dm::CryptCpuModel::aesni());
    crypt.write_blocks(0, data);
    crypt.drain();
    return f.clock->now();
  };
  const std::uint64_t serial_ns = run(1), piped_ns = run(8);
  EXPECT_LT(piped_ns, serial_ns);
  const std::uint64_t crypto_ns = 256ull * 2'000;
  EXPECT_LT(piped_ns, serial_ns - crypto_ns / 4);
}

TEST(AsyncCrypt, SubmitApiEncryptsAndDefersAvailability) {
  crypto::SecureRandom rng(11);
  const util::Bytes key = rng.bytes(32);
  TimedFixture f(/*depth=*/4, 64);
  dm::CryptTarget crypt(f.dev, "aes-cbc-essiv:sha256", key, f.clock,
                        dm::CryptCpuModel::snapdragon_s4());
  const util::Bytes data = pattern(4 * kBs, 8);
  const auto w = crypt.submit(write_req(0, data, /*cookie=*/5));
  // Device cannot start before the 4-block encryption (100 µs) finished.
  EXPECT_GE(w.complete_ns, 4 * 25'000u + 10 + 2000 + 4 * 2000u);

  util::Bytes rd(4 * kBs);
  const auto r = crypt.submit(read_req(0, 4, rd, /*cookie=*/6));
  EXPECT_EQ(rd, data);  // decrypted in place at submit
  EXPECT_GT(r.complete_ns, w.complete_ns);
  // Polling through the wrapper honours the timed device's clock: nothing
  // is ready until the timeline reaches the completions.
  EXPECT_TRUE(crypt.poll_completions().empty());
  const auto done = crypt.drain();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].user_data, 5u);
  EXPECT_EQ(done[1].user_data, 6u);
}

// ---- scheme-level equivalence and determinism --------------------------------

namespace {

constexpr char kPub[] = "async-public-pw";
constexpr char kHid[] = "async-hidden-pw";

struct SchemeRun {
  util::Bytes image;
  std::uint64_t clock_ns = 0;
};

SchemeRun run_scheme_workload(const std::string& name, std::uint32_t depth) {
  auto clock = std::make_shared<util::SimClock>();
  auto mem = std::make_shared<blockdev::MemBlockDevice>(16384);
  auto timed = std::make_shared<blockdev::TimedDevice>(
      mem, blockdev::TimingModel::nexus4_emmc(), clock);
  timed->set_queue_depth(depth);

  api::SchemeOptions opts;
  opts.device = timed;
  opts.clock = clock;
  opts.public_password = kPub;
  opts.kdf_iterations = 16;
  opts.fs_inode_count = 128;
  opts.num_volumes = 4;
  opts.chunk_blocks = 4;
  opts.skip_random_fill = true;
  if (api::SchemeRegistry::entry(name).capabilities.has(
          api::Capability::kHiddenVolume)) {
    opts.hidden_passwords = {kHid};
  }
  auto scheme = api::SchemeRegistry::create(name, opts);
  EXPECT_TRUE(scheme->unlock(kPub).ok) << name;

  auto& fs = scheme->data_fs();
  fs.write_file("/a.bin", pattern(48 * kBs + 123, 1));
  fs.write_file("/b.bin", pattern(9 * kBs + 17, 2));
  fs.sync();
  const auto back = fs.read_file("/a.bin");
  EXPECT_EQ(back, pattern(48 * kBs + 123, 1)) << name;
  fs.unlink("/b.bin");
  fs.write_file("/c.bin", pattern(20 * kBs, 3));
  fs.sync();
  return {mem->raw(), clock->now()};
}

}  // namespace

TEST(AsyncEquivalence, EverySchemeEndsBitIdenticalAcrossQueueDepths) {
  for (const std::string& name : api::SchemeRegistry::names()) {
    const SchemeRun qd1 = run_scheme_workload(name, 1);
    for (const std::uint32_t depth : {2u, 8u}) {
      const SchemeRun deep = run_scheme_workload(name, depth);
      EXPECT_EQ(qd1.image, deep.image) << name << " qd" << depth;
      EXPECT_LE(deep.clock_ns, qd1.clock_ns) << name << " qd" << depth;
    }
  }
}

TEST(AsyncEquivalence, ReplayIsExactAtEveryDepthAndThreadCount) {
  for (const std::uint32_t depth : {1u, 2u, 8u}) {
    const SchemeRun a = run_scheme_workload("mobiceal", depth);
    const SchemeRun b = run_scheme_workload("mobiceal", depth);
    EXPECT_EQ(a.clock_ns, b.clock_ns) << depth;
    EXPECT_EQ(a.image, b.image) << depth;
  }
  // Crypto worker threads are wall-clock only: virtual results identical.
  const SchemeRun inline_run = run_scheme_workload("mobiceal", 8);
  crypto::CryptoWorkerPool::set_shared_threads(3);
  const SchemeRun threaded_run = run_scheme_workload("mobiceal", 8);
  crypto::CryptoWorkerPool::set_shared_threads(0);
  EXPECT_EQ(inline_run.clock_ns, threaded_run.clock_ns);
  EXPECT_EQ(inline_run.image, threaded_run.image);
}

// ---- crypto worker pool ------------------------------------------------------

TEST(CryptoPool, ParallelCoversEveryShardExactlyOnce) {
  crypto::CryptoWorkerPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel(64, [&](std::size_t s) { ++hits[s]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(CryptoPool, InlinePoolRunsOnCaller) {
  crypto::CryptoWorkerPool pool(0);
  const std::thread::id caller = std::this_thread::get_id();
  bool same_thread = false;
  pool.parallel(1, [&](std::size_t) {
    same_thread = std::this_thread::get_id() == caller;
  });
  EXPECT_TRUE(same_thread);
  auto fut = pool.async([] {});
  EXPECT_TRUE(fut.valid());
  fut.get();
}

TEST(CryptoPool, ParallelPropagatesTheFirstException) {
  crypto::CryptoWorkerPool pool(2);
  EXPECT_THROW(pool.parallel(8,
                             [](std::size_t s) {
                               if (s == 3) {
                                 throw util::CryptoError("shard failure");
                               }
                             }),
               util::CryptoError);
}

TEST(CryptoPool, AsyncDeliversExceptionsThroughTheFuture) {
  crypto::CryptoWorkerPool pool(2);
  auto fut = pool.async([] { throw util::IoError("boom"); });
  EXPECT_THROW(fut.get(), util::IoError);
}

TEST(CryptoPool, ShardedRangeTransformMatchesSerial) {
  // A 4-thread pool shards the range transform; the ciphertext must equal
  // the serial reference byte for byte (every sector derives its own IV).
  crypto::SecureRandom rng(3);
  const util::Bytes key = rng.bytes(32);
  const auto cipher = crypto::make_sector_cipher("aes-xts-plain64", key);
  const std::size_t sectors_per_block = kBs / blockdev::kSectorSize;
  const util::Bytes pt = pattern(64 * kBs, 21);
  util::Bytes ref(pt.size());
  cipher->encrypt_range(16 * sectors_per_block, blockdev::kSectorSize, pt,
                        ref);

  auto mem = std::make_shared<blockdev::MemBlockDevice>(128);
  dm::CryptTarget crypt(mem, "aes-xts-plain64", key, nullptr,
                        dm::CryptCpuModel::zero(),
                        std::make_shared<crypto::CryptoWorkerPool>(4));
  crypt.write_blocks(16, pt);
  EXPECT_EQ(util::Bytes(mem->raw().begin() + 16 * kBs,
                        mem->raw().begin() + 16 * kBs + pt.size()),
            ref);

  util::Bytes rd(pt.size());
  crypt.read_blocks(16, 64, rd);  // sharded decrypt round-trips
  EXPECT_EQ(rd, pt);
}

// ---- range locks -------------------------------------------------------------

TEST(RangeLock, OverlappingAcquireBlocksUntilRelease) {
  thin::RangeLock lock;
  std::atomic<bool> acquired{false};
  auto g = lock.acquire(10, 20);
  std::thread t([&] {
    const auto g2 = lock.acquire(25, 10);  // overlaps [10, 30)
    acquired = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  { const auto release = std::move(g); }  // guard releases on destruction
  t.join();
  EXPECT_TRUE(acquired.load());
}

TEST(RangeLock, DisjointRangesProceedConcurrently) {
  thin::RangeLock lock;
  const auto g1 = lock.acquire(0, 16);
  const auto g2 = lock.acquire(16, 16);  // adjacent, not overlapping
  const auto g3 = lock.acquire(100, 1);
  SUCCEED();
}

TEST(RangeLock, ConcurrentWritersToOneVolumeSerialisePerRange) {
  // Two threads hammer disjoint halves of one thin volume through the
  // range-locked write path; contents and pool metadata must land exactly
  // (TSan exercises the locking). No virtual clock here — the SimClock is
  // single-submitter by contract.
  auto meta = std::make_shared<blockdev::MemBlockDevice>(512);
  auto data = std::make_shared<blockdev::MemBlockDevice>(4096);
  thin::ThinPool::Config cfg;
  cfg.chunk_blocks = 4;
  cfg.max_volumes = 8;
  cfg.policy = thin::AllocPolicy::kSequential;
  cfg.cpu = thin::ThinCpuModel::zero();
  auto pool = thin::ThinPool::format(meta, data, cfg);
  pool->create_thin(0, 64);
  auto vol = pool->open_thin(0);
  const util::Bytes lo = pattern(64 * kBs, 1), hi = pattern(64 * kBs, 2);
  std::thread a([&] { vol->write_blocks(0, lo); });
  std::thread b([&] { vol->write_blocks(128, hi); });
  a.join();
  b.join();
  EXPECT_EQ(vol->read_blocks(0, 64), lo);
  EXPECT_EQ(vol->read_blocks(128, 64), hi);
  EXPECT_TRUE(pool->check_consistency());
}

// ---- wait_until + timed segment submission -----------------------------------

TEST(QueueDepthModel, WaitUntilIsAPartialBarrier) {
  TimedFixture f(/*depth=*/4);
  const util::Bytes data = pattern(3 * kBs, 13);
  const auto a = f.dev->submit(write_req(0, {data.data(), kBs}, 1));
  const auto b = f.dev->submit(write_req(1, {data.data() + kBs, kBs}, 2));
  const auto c =
      f.dev->submit(write_req(2, {data.data() + 2 * kBs, kBs}, 3));
  ASSERT_LT(a.complete_ns, b.complete_ns);
  ASSERT_LT(b.complete_ns, c.complete_ns);

  // Before the first completion: nothing reaped, clock pinned at cutoff.
  EXPECT_TRUE(f.dev->wait_until(a.complete_ns - 1).empty());
  EXPECT_EQ(f.clock->now(), a.complete_ns - 1);

  // At the first completion: exactly that request, the rest stay in flight.
  const auto first = f.dev->wait_until(a.complete_ns);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].user_data, 1u);
  EXPECT_EQ(f.clock->now(), a.complete_ns);
  EXPECT_TRUE(f.dev->poll_completions().empty());

  // Past the last completion: wait_until reaps the remainder in
  // (complete_ns, ticket) order and the clock lands exactly on the cutoff
  // (unlike drain(), which stops at the last completion).
  const auto rest = f.dev->wait_until(c.complete_ns + 500);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].user_data, 2u);
  EXPECT_EQ(rest[1].user_data, 3u);
  EXPECT_EQ(f.clock->now(), c.complete_ns + 500);

  // A cutoff behind the clock is a pure (empty) reap, never a rewind.
  EXPECT_TRUE(f.dev->wait_until(0).empty());
  EXPECT_EQ(f.clock->now(), c.complete_ns + 500);
}

TEST(QueueDepthModel, TimedSegmentSubmitReportsPerSegmentCompletions) {
  TimedFixture f(/*depth=*/8);
  const util::Bytes buf = pattern(64 * kBs, 29);
  const std::uint64_t floor_ns = 123'456;
  const auto segs = blockdev::submit_write_segments(*f.dev, 0, buf, floor_ns);
  ASSERT_EQ(segs.size(), 2u);  // 64 blocks / kSubmitSegmentBlocks
  // Data lands at submit time; only service time is deferred.
  EXPECT_EQ(util::Bytes(f.mem->raw().begin(),
                        f.mem->raw().begin() + 64 * kBs),
            buf);
  // The available_ns floor delays service start, so every segment
  // completes after it; segments finish in submission order here
  // (sequential writes share the serial command channel).
  EXPECT_GT(segs[0].complete_ns, floor_ns);
  EXPECT_LT(segs[0].complete_ns, segs[1].complete_ns);

  // The per-segment times are exactly what the partial barrier sees — the
  // flusher's contract: close one segment's timeline, leave the next in
  // flight.
  const auto first = f.dev->wait_until(segs[0].complete_ns);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].complete_ns, segs[0].complete_ns);
  const auto rest = f.dev->drain();
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].complete_ns, segs[1].complete_ns);
  EXPECT_EQ(f.clock->now(), segs[1].complete_ns);
}

// ---- sharded virtual clocks --------------------------------------------------

namespace {

constexpr std::uint32_t kShardStripes = 4;

/// MobiCeal over 4 RAID-0 stripes at QD 8, each stripe's TimedDevice
/// advancing shard i % shards of a util::ClockDomain — the bench harness
/// geometry, shrunk to test size. Returns the *logical* image (the striped
/// reassembly, the multi-snapshot adversary's view) and the merged domain
/// time. Pass a domain to reuse one across runs (the reset regression).
SchemeRun run_sharded_workload(
    std::uint32_t shards,
    std::shared_ptr<util::ClockDomain> domain = nullptr) {
  if (!domain) domain = std::make_shared<util::ClockDomain>(shards);
  constexpr std::uint64_t kPerStripeBlocks = 16384 / kShardStripes;
  std::vector<std::shared_ptr<blockdev::BlockDevice>> raw;
  std::vector<std::shared_ptr<blockdev::BlockDevice>> timed;
  for (std::uint32_t i = 0; i < kShardStripes; ++i) {
    auto mem = std::make_shared<blockdev::MemBlockDevice>(kPerStripeBlocks);
    auto t = std::make_shared<blockdev::TimedDevice>(
        mem, blockdev::TimingModel::nexus4_emmc(), domain->shard_for(i));
    t->set_queue_depth(8);
    raw.push_back(std::move(mem));
    timed.push_back(std::move(t));
  }

  api::SchemeOptions opts;
  opts.stripe_devices = timed;
  opts.clock = domain->shard(0);
  if (shards > 1) opts.clock_domain = domain;
  opts.stack.queue_depth = 8;
  opts.stack.stripe_count = kShardStripes;
  opts.stack.crypto_lanes = kShardStripes;
  opts.stack.clock_shards = shards;
  opts.public_password = kPub;
  opts.hidden_passwords = {kHid};
  opts.kdf_iterations = 16;
  opts.fs_inode_count = 128;
  opts.num_volumes = 4;
  opts.chunk_blocks = 4;
  opts.skip_random_fill = true;
  auto scheme = api::SchemeRegistry::create("mobiceal", opts);
  EXPECT_TRUE(scheme->unlock(kPub).ok) << shards << " shards";

  auto& fs = scheme->data_fs();
  fs.write_file("/a.bin", pattern(48 * kBs + 123, 1));
  fs.write_file("/b.bin", pattern(9 * kBs + 17, 2));
  fs.sync();
  EXPECT_EQ(fs.read_file("/a.bin"), pattern(48 * kBs + 123, 1));
  fs.unlink("/b.bin");
  fs.write_file("/c.bin", pattern(20 * kBs, 3));
  fs.sync();

  dm::StripedTarget logical(raw, opts.stack.stripe_chunk_blocks);
  return {logical.snapshot(), domain->now()};
}

}  // namespace

TEST(ShardedClock, MergeIsWorkerThreadInvariantAndImageShardInvariant) {
  // The ISSUE 7 determinism bar: the same workload under 1/2/4/8 clock
  // shards and 1..4 crypto worker threads must produce bit-identical
  // logical images and — per shard count — identical merged timestamps.
  // (Merged time may legitimately differ BETWEEN shard counts: overlap
  // changes the timeline, never the bytes.)
  util::Bytes reference;
  for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    const SchemeRun base = run_sharded_workload(shards);
    if (reference.empty()) {
      reference = base.image;
    } else {
      EXPECT_EQ(base.image, reference) << shards << " shards";
    }
    for (int threads = 1; threads <= 4; ++threads) {
      crypto::CryptoWorkerPool::set_shared_threads(threads);
      const SchemeRun r = run_sharded_workload(shards);
      crypto::CryptoWorkerPool::set_shared_threads(0);
      EXPECT_EQ(r.image, base.image)
          << shards << " shards, " << threads << " threads";
      EXPECT_EQ(r.clock_ns, base.clock_ns)
          << shards << " shards, " << threads << " threads";
    }
  }
}

TEST(ShardedClock, ShardingOverlapsButNeverReordersTheTimeline) {
  // More shards may only shorten (or keep) the merged elapsed time — the
  // whole point of independent shard advance — and replay exactly.
  const SchemeRun one = run_sharded_workload(1);
  const SchemeRun four = run_sharded_workload(4);
  EXPECT_LE(four.clock_ns, one.clock_ns);
  const SchemeRun again = run_sharded_workload(4);
  EXPECT_EQ(again.clock_ns, four.clock_ns);
  EXPECT_EQ(again.image, four.image);
}

TEST(ShardedClock, ResetBetweenRepsLeavesNoGhostTime) {
  // Benches reuse one domain across repetitions with a reset() between:
  // any virtual time leaking through a shard, a TimedDevice's slot state,
  // a thin CPU lane, or a pending flusher deadline would skew every
  // repetition after the first.
  auto domain = std::make_shared<util::ClockDomain>(kShardStripes);
  const SchemeRun rep1 = run_sharded_workload(kShardStripes, domain);
  EXPECT_GT(rep1.clock_ns, 0u);
  domain->reset();
  EXPECT_EQ(domain->now(), 0u);
  const SchemeRun rep2 = run_sharded_workload(kShardStripes, domain);
  EXPECT_EQ(rep2.clock_ns, rep1.clock_ns);
  EXPECT_EQ(rep2.image, rep1.image);
}

// ---- background cache flusher ------------------------------------------------

namespace {

/// MobiCeal behind a small writeback cache (heavy eviction + writeback
/// pressure), flusher thread on or off. Returns the raw image after
/// reboot() — the parity the deniability argument needs.
util::Bytes run_flusher_workload(bool flusher) {
  auto clock = std::make_shared<util::SimClock>();
  auto mem = std::make_shared<blockdev::MemBlockDevice>(16384);
  auto timed = std::make_shared<blockdev::TimedDevice>(
      mem, blockdev::TimingModel::nexus4_emmc(), clock);
  timed->set_queue_depth(8);

  api::SchemeOptions opts;
  opts.device = timed;
  opts.clock = clock;
  opts.stack.queue_depth = 8;
  opts.stack.cache_blocks = 24;  // tiny: constant eviction + writeback
  opts.stack.cache_writeback = true;
  opts.stack.flusher.enabled = flusher;
  opts.public_password = kPub;
  opts.hidden_passwords = {kHid};
  opts.kdf_iterations = 16;
  opts.fs_inode_count = 128;
  opts.num_volumes = 4;
  opts.chunk_blocks = 4;
  opts.skip_random_fill = true;
  auto scheme = api::SchemeRegistry::create("mobiceal", opts);
  EXPECT_TRUE(scheme->unlock(kPub).ok);

  auto& fs = scheme->data_fs();
  fs.write_file("/a.bin", pattern(48 * kBs + 123, 1));
  fs.sync();
  // Re-dirty resident blocks: the pattern where background writeback (not
  // just eviction epochs) actually runs.
  fs.write_file("/a.bin", pattern(48 * kBs + 123, 4));
  fs.write_file("/c.bin", pattern(20 * kBs, 3));
  fs.sync();
  scheme->reboot();  // join the worker, flush, unmount
  return mem->raw();
}

}  // namespace

TEST(CacheFlusher, ImageIsBitIdenticalWithTheWorkerThreadOnOrOff) {
  const util::Bytes off = run_flusher_workload(false);
  const util::Bytes on = run_flusher_workload(true);
  EXPECT_EQ(on, off);
}
