// Fleet bench: N tenants, each a public/hidden volume pair, multi-mounted
// on ONE shared thin pool over an 8-way striped SSD array — the server-side
// deployment ISSUE 8 targets, where the allocator lock (not the device) is
// the scaling wall. Two passes:
//
//   1. Measured pass (virtual time, deterministic): a single driver thread
//      round-robins the tenants, each tenant keeping a small window of
//      chunk-sized writes in flight chained through available_ns — a closed
//      queueing network of tenants over the pool. The fleet contention
//      model (meta_shard_lanes) charges each fresh chunk's metadata
//      bookkeeping (mapping insert + allocation) to one virtual CPU lane
//      per allocator shard, so at --alloc-shards=1 every tenant queues on
//      the historical single meta lock's timeline while at 4 shards the
//      bookkeeping fans out and the striped device becomes the bottleneck.
//      Gate (exit nonzero, mirrored by bench_compare.py on the _kbps keys):
//      4-tenant/4-shard aggregate throughput >= 2x the 1-shard run.
//   2. Threaded pass (real std::threads, untimed pool): one submitter
//      thread per tenant drives the same workload through the synchronous
//      write path — the shard mutexes, the weighted-draw mutex, and the
//      striped RangeLock table under genuine concurrency (the TSan CI job
//      runs this binary). Allocation interleaving is nondeterministic, so
//      the canary is invariant-based: check_consistency() plus per-tenant
//      readback, not an image compare.
//
// Security canary: the 1-shard and K-shard measured passes must produce
// bit-identical logical data images (fleet alloc_parity_adv) — the
// distribution-invariance claim of the sharded allocator, end to end.
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "blockdev/block_device.hpp"
#include "blockdev/timed_device.hpp"
#include "dm/striped_target.hpp"
#include "harness.hpp"
#include "thin/metadata_format.hpp"
#include "thin/thin_pool.hpp"
#include "util/clock_domain.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace mobiceal;
using namespace mobiceal::bench;

namespace {

constexpr std::uint32_t kStripes = 8;
constexpr std::uint32_t kChunkBlocks = 2;  // 8 KiB pool chunks
constexpr std::uint32_t kQueueDepth = 8;
/// Writes each tenant keeps in flight (an app's own I/O queue). Deep
/// enough that the bottleneck station — meta lane or device — stays
/// saturated and sets the aggregate rate, not the per-tenant round trip.
constexpr std::uint32_t kTenantWindow = 8;

/// Deterministic per-(tenant, round) chunk payload — the same function in
/// both measured passes (image parity) and the threaded pass (readback).
void fill_pattern(util::MutByteSpan out, std::uint32_t tenant,
                  std::uint64_t round) {
  util::SplitMix64 gen((std::uint64_t{tenant} << 32) ^ (round * 0x9e3779b9u) ^
                       0x666c6565745f6274ull);
  gen.fill(out);
}

struct FleetGeometry {
  std::uint64_t rounds = 0;        // writes per tenant
  std::uint64_t total_chunks = 0;  // rounds * tenants
  std::uint64_t data_blocks = 0;   // striped data capacity
  std::uint64_t vchunks = 0;       // virtual chunks per volume
};

FleetGeometry fleet_geometry(std::uint32_t tenants, std::uint64_t bytes) {
  FleetGeometry g;
  const std::uint64_t chunk_bytes =
      kChunkBlocks * blockdev::kDefaultBlockSize;
  std::uint64_t chunks = bytes / chunk_bytes;
  if (chunks < tenants * 2) chunks = tenants * 2;
  g.rounds = chunks / tenants;
  g.total_chunks = g.rounds * tenants;
  // 3x slack keeps the random allocator off the collision-heavy tail so
  // both shard counts measure lock/lane behaviour, not a nearly-full pool.
  g.data_blocks = g.total_chunks * kChunkBlocks * 3;
  g.data_blocks += (kStripes - g.data_blocks % kStripes) % kStripes;
  g.vchunks = g.rounds / 2 + 2;
  return g;
}

thin::ThinPool::Config fleet_pool_config(std::uint32_t tenants,
                                         std::uint32_t shards) {
  thin::ThinPool::Config pc;
  pc.chunk_blocks = kChunkBlocks;
  pc.max_volumes = 2 * tenants;
  pc.policy = thin::AllocPolicy::kRandom;
  pc.cpu = thin::ThinCpuModel::nexus4();
  pc.alloc_shards = shards;
  return pc;
}

std::shared_ptr<blockdev::MemBlockDevice> fleet_meta_device(
    std::uint32_t tenants, const FleetGeometry& g) {
  thin::Superblock est;
  est.chunk_blocks = kChunkBlocks;
  est.max_volumes = 2 * tenants;
  est.nr_chunks = g.data_blocks / kChunkBlocks;
  est.max_chunks_per_volume = est.nr_chunks;
  const auto geom =
      thin::MetadataGeometry::compute(est, blockdev::kDefaultBlockSize);
  return std::make_shared<blockdev::MemBlockDevice>(geom.total_blocks + 8);
}

struct FleetRun {
  double elapsed_s = 0;
  util::Bytes image;  // logical data image (the adversary's view)
  util::LatencyHistogram lat;
  std::uint64_t txn_chunks = 0;
  bool consistent = false;
};

/// Measured pass: virtual-time fleet over the striped SSD array.
FleetRun run_fleet(std::uint32_t tenants, std::uint32_t shards,
                   std::uint64_t bytes, std::uint64_t seed) {
  const FleetGeometry g = fleet_geometry(tenants, bytes);
  const std::uint64_t chunk_bytes =
      kChunkBlocks * blockdev::kDefaultBlockSize;

  auto domain = std::make_shared<util::ClockDomain>(kStripes);
  std::vector<std::shared_ptr<blockdev::BlockDevice>> raws, timed;
  for (std::uint32_t i = 0; i < kStripes; ++i) {
    auto raw = std::make_shared<blockdev::MemBlockDevice>(g.data_blocks /
                                                          kStripes);
    auto td = std::make_shared<blockdev::TimedDevice>(
        raw, blockdev::TimingModel::sata_ssd(), domain->shard_for(i));
    td->set_queue_depth(kQueueDepth);
    raws.push_back(std::move(raw));
    timed.push_back(std::move(td));
  }
  // stripe chunk of 1 block: each 2-block pool chunk lands on two stripes.
  auto data = std::make_shared<dm::StripedTarget>(timed, 1, domain);
  auto logical = std::make_shared<dm::StripedTarget>(raws, 1);

  auto pc = fleet_pool_config(tenants, shards);
  pc.meta_shard_lanes = true;  // the fleet contention model under test
  auto pool = thin::ThinPool::format(fleet_meta_device(tenants, g), data, pc,
                                     domain->shard(0));
  pool->set_clock_domain(domain);
  util::Xoshiro256 alloc_rng(seed);
  pool->set_alloc_rng(&alloc_rng);

  std::vector<std::shared_ptr<thin::ThinVolume>> vols;
  for (std::uint32_t v = 0; v < 2 * tenants; ++v) {
    pool->create_thin(v, g.vchunks);
    vols.push_back(pool->open_thin(v));
  }

  // last[t * kTenantWindow + slot]: completion time of the slot's previous
  // write — the chain that bounds tenant t to kTenantWindow in flight.
  std::vector<std::uint64_t> last(std::size_t{tenants} * kTenantWindow, 0);
  std::vector<util::LatencyHistogram> lat(tenants);
  util::Bytes buf(chunk_bytes);
  for (std::uint64_t r = 0; r < g.rounds; ++r) {
    for (std::uint32_t t = 0; t < tenants; ++t) {
      fill_pattern({buf.data(), buf.size()}, t, r);
      blockdev::IoRequest req;
      req.op = blockdev::IoOp::kWrite;
      req.first = (r / 2) * kChunkBlocks;  // alternate pub/hid per round
      req.count = kChunkBlocks;
      req.write_buf = {buf.data(), buf.size()};
      std::uint64_t& slot =
          last[std::size_t{t} * kTenantWindow + r % kTenantWindow];
      req.available_ns = slot;
      const auto res = vols[t * 2 + (r & 1)]->submit(req);
      lat[t].record(res.complete_ns - slot);
      slot = res.complete_ns;
    }
  }
  vols[0]->drain();  // full barrier over the pool's data device
  domain->sync();

  FleetRun out;
  std::uint64_t end = domain->now();
  for (const std::uint64_t ns : last) end = std::max(end, ns);
  out.elapsed_s = static_cast<double>(end) * 1e-9;
  out.txn_chunks = pool->txn_allocation_count();
  pool->commit();
  out.consistent = pool->check_consistency();
  out.image = logical->snapshot();
  // Tenant-order merge: the aggregate histogram is independent of how the
  // driver interleaved submissions.
  for (auto& h : lat) out.lat.merge(h);
  return out;
}

/// Threaded pass: real submitter threads on an untimed pool. Returns true
/// when the pool stays consistent and every tenant reads back its data.
bool run_threaded(std::uint32_t tenants, std::uint32_t shards,
                  std::uint64_t bytes) {
  const FleetGeometry g = fleet_geometry(tenants, bytes);
  const std::uint64_t chunk_bytes =
      kChunkBlocks * blockdev::kDefaultBlockSize;

  auto data = std::make_shared<blockdev::MemBlockDevice>(g.data_blocks);
  auto pc = fleet_pool_config(tenants, shards);
  pc.cpu = thin::ThinCpuModel::zero();  // no clock — time is meaningless
  auto pool = thin::ThinPool::format(fleet_meta_device(tenants, g), data, pc);

  std::vector<std::shared_ptr<thin::ThinVolume>> vols;
  for (std::uint32_t v = 0; v < 2 * tenants; ++v) {
    pool->create_thin(v, g.vchunks);
    vols.push_back(pool->open_thin(v));
  }

  std::vector<std::thread> workers;
  workers.reserve(tenants);
  for (std::uint32_t t = 0; t < tenants; ++t) {
    workers.emplace_back([&, t] {
      util::Bytes buf(chunk_bytes);
      for (std::uint64_t r = 0; r < g.rounds; ++r) {
        fill_pattern({buf.data(), buf.size()}, t, r);
        vols[t * 2 + (r & 1)]->write_blocks((r / 2) * kChunkBlocks,
                                            {buf.data(), buf.size()});
      }
    });
  }
  for (auto& w : workers) w.join();

  pool->commit();
  bool ok = pool->check_consistency();
  util::Bytes expect(chunk_bytes), got(chunk_bytes);
  for (std::uint32_t t = 0; t < tenants && ok; ++t) {
    for (std::uint64_t r = 0; r < g.rounds; ++r) {
      fill_pattern({expect.data(), expect.size()}, t, r);
      vols[t * 2 + (r & 1)]->read_blocks((r / 2) * kChunkBlocks, kChunkBlocks,
                                         {got.data(), got.size()});
      if (expect != got) {
        ok = false;
        break;
      }
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  JsonReport json("fleet", argc, argv);
  const std::uint64_t bytes = env_bench_bytes(8);
  StackOptions o;
  o.stack.apply_knobs(argc, argv);
  // The contrast config: --alloc-shards when given, else 4 shards, with
  // one tenant per shard. The 1-shard leg is always the baseline.
  const std::uint32_t shards =
      o.stack.alloc_shards > 1 ? o.stack.alloc_shards : 4;
  const std::uint32_t tenants = shards;
  const FleetGeometry g = fleet_geometry(tenants, bytes);
  const std::uint64_t total_bytes =
      g.total_chunks * kChunkBlocks * blockdev::kDefaultBlockSize;

  json.add("workload_mb", static_cast<double>(bytes >> 20));
  json.add("fleet_tenants", static_cast<double>(tenants));
  json.add("alloc_shards", static_cast<double>(shards));

  std::printf("== Fleet: %u tenant pairs, one pool, %u-stripe SSD, QD %u, "
              "window %u (%llu chunks, virtual time) ==\n\n",
              tenants, kStripes, kQueueDepth, kTenantWindow,
              static_cast<unsigned long long>(g.total_chunks));
  std::printf("%7s %14s %10s %10s %10s %6s\n", "shards", "agg KB/s",
              "p50 us", "p99 us", "mean us", "state");

  bool ok = true;
  double s1_kbps = 0, sk_kbps = 0;
  FleetRun base;
  for (const std::uint32_t s : {std::uint32_t{1}, shards}) {
    const FleetRun r = run_fleet(tenants, s, bytes, o.seed);
    if (s == 1) base = r;
    const bool match = s == 1 || r.image == base.image;
    const double agg = kbps(total_bytes, r.elapsed_s);
    std::printf("%7u %14.0f %10.1f %10.1f %10.1f %6s\n", s, agg,
                static_cast<double>(r.lat.percentile_ns(0.50)) * 1e-3,
                static_cast<double>(r.lat.percentile_ns(0.99)) * 1e-3,
                r.lat.mean_ns() * 1e-3,
                r.consistent && match ? "ok" : "BAD");
    char key_buf[32];
    std::snprintf(key_buf, sizeof key_buf, "t%u.s%u", tenants, s);
    const std::string key = key_buf;
    json.add(key + ".aggregate_write_kbps", agg);
    json.add(key + ".p50_ns",
             static_cast<double>(r.lat.percentile_ns(0.50)));
    json.add(key + ".p99_ns",
             static_cast<double>(r.lat.percentile_ns(0.99)));
    json.add(key + ".mean_ns", r.lat.mean_ns());
    json.add(key + ".txn_chunks", static_cast<double>(r.txn_chunks));
    // Security canaries, gated absolutely by bench_compare.py: pool
    // invariants hold, and the sharded run's logical image is
    // bit-identical to the 1-shard run (distribution invariance).
    json.add(key + ".consistency_adv", r.consistent ? 0.0 : 1.0);
    if (s != 1) json.add("alloc_parity_adv", match ? 0.0 : 1.0);
    ok = ok && r.consistent && match;
    if (s == 1) s1_kbps = agg;
    sk_kbps = agg;
  }

  const double speedup = s1_kbps > 0 ? sk_kbps / s1_kbps : 0;
  char speedup_key[40];
  std::snprintf(speedup_key, sizeof speedup_key, "s%u_over_s1_speedup",
                shards);
  json.add(speedup_key, speedup);

  const bool threaded_ok = run_threaded(tenants, shards, bytes);
  json.add("threaded_consistency_adv", threaded_ok ? 0.0 : 1.0);

  std::printf("\n-- shape checks --\n");
  std::printf("%u-shard aggregate >= 2x 1-shard:        %s (%.2fx)\n",
              shards, speedup >= 2.0 ? "yes" : "NO", speedup);
  std::printf("sharded image == 1-shard image:         %s\n",
              ok ? "yes" : "NO");
  std::printf("threaded pass consistent + readback:    %s\n",
              threaded_ok ? "yes" : "NO");
  ok = ok && threaded_ok && speedup >= 2.0;
  return ok ? 0 : 1;
}
