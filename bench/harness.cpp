#include "harness.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "dm/striped_target.hpp"
#include "util/error.hpp"

namespace mobiceal::bench {

namespace {
constexpr char kPub[] = "bench-public";
constexpr char kHid[] = "bench-hidden";

/// Builds the backing store for a stack into `s` and fills the device
/// fields of `opts`: one timed device (opts.device), or stripe_count
/// independently timed stripes (opts.stripe_devices) plus an untimed
/// striped view in s.raw so raw->snapshot() stays the logical image.
/// With clock shards on a striped stack, the shared clock becomes shard 0
/// of a fresh util::ClockDomain and stripe i's device advances shard
/// i % shards — clock_shards is ignored (single timeline) without striping.
/// With mirror_legs > 1 every backing position becomes a
/// dm::MirrorTarget of independently timed, fault-injected legs (legs of
/// one position share that position's clock shard so mirrored writes
/// overlap); leg 0's raw device stays the canonical logical image.
void build_backing(BenchStack& s, const StackOptions& o,
                   api::SchemeOptions& opts) {
  opts.stack = o.stack;
  if (o.stack.stripe_count > 1 && o.stack.clock_shards > 1) {
    s.domain = std::make_shared<util::ClockDomain>(o.stack.clock_shards);
    s.clock = s.domain->shard(0);
    opts.clock_domain = s.domain;
  }
  opts.clock = s.clock;
  const std::uint32_t legs = o.mirror_legs;
  // One deterministic seed stream for every leg injector, in construction
  // order — runs replay bit-for-bit.
  util::SplitMix64 fault_seeds(1);
  // One timed backing device: the historical Mem+TimedDevice pair, or —
  // with --ftl — an ftl::FtlDevice whose flash timing model replaces the
  // block-level one (stacking both would double-charge service time).
  // Returns {device the stack sees, untimed raw logical image}.
  auto build_device = [&](std::uint64_t blocks,
                          const blockdev::TimingModel& model,
                          std::shared_ptr<util::SimClock> clock)
      -> std::pair<std::shared_ptr<blockdev::BlockDevice>,
                   std::shared_ptr<blockdev::BlockDevice>> {
    if (o.stack.ftl_mode != 0) {
      ftl::FtlConfig fcfg;
      fcfg.logical_blocks = blocks;
      fcfg.pages_per_block = o.stack.ftl_pages_per_block;
      fcfg.over_provision_pct = o.stack.ftl_over_provision_pct;
      fcfg.timing = ftl::FlashTimingModel::mlc_nand();
      auto flash = ftl::FtlDevice::create(fcfg, std::move(clock));
      auto view = std::make_shared<ftl::FtlLogicalView>(flash);
      s.ftl_devices.push_back(flash);
      return {std::move(flash), std::move(view)};
    }
    auto raw = std::make_shared<blockdev::MemBlockDevice>(blocks);
    auto timed =
        std::make_shared<blockdev::TimedDevice>(raw, model, std::move(clock));
    timed->set_queue_depth(o.stack.queue_depth);
    return {std::move(timed), std::move(raw)};
  };
  // Builds one backing position: {device the stack sees, untimed raw
  // logical image}. legs <= 1 reproduces the historical single-device
  // position exactly (no mirror, no injector).
  auto build_position = [&](std::uint64_t blocks,
                            std::shared_ptr<util::SimClock> clock)
      -> std::pair<std::shared_ptr<blockdev::BlockDevice>,
                   std::shared_ptr<blockdev::BlockDevice>> {
    if (legs <= 1) return build_device(blocks, o.device_model, clock);
    std::vector<std::shared_ptr<blockdev::BlockDevice>> leg_devs;
    std::vector<std::shared_ptr<blockdev::BlockDevice>> leg_raws;
    std::vector<std::shared_ptr<blockdev::FaultInjector>> leg_injs;
    for (std::uint32_t l = 0; l < legs; ++l) {
      const blockdev::TimingModel& model =
          o.mirror_leg_models.empty()
              ? o.device_model
              : o.mirror_leg_models[l % o.mirror_leg_models.size()];
      auto [timed, raw] = build_device(blocks, model, clock);
      blockdev::FaultPlan plan;
      plan.seed = fault_seeds.next_u64();
      plan.transient_read_ppm = o.fault_read_ppm;
      if (o.fault_drop_member == l + 1) plan.drop_after_requests = 0;
      auto inj = std::make_shared<blockdev::FaultInjector>(plan);
      leg_devs.push_back(std::make_shared<blockdev::FaultInjectedDevice>(
          std::move(timed), inj));
      leg_raws.push_back(std::move(raw));
      leg_injs.push_back(std::move(inj));
    }
    auto mirror = std::make_shared<dm::MirrorTarget>(leg_devs);
    if (o.fault_drop_member >= 2 && o.fault_drop_member <= legs) {
      mirror->fail_member(o.fault_drop_member - 1);
    }
    auto raw0 = leg_raws.front();
    s.mirrors.push_back(mirror);
    s.mirror_leg_raw.push_back(std::move(leg_raws));
    s.mirror_injectors.push_back(std::move(leg_injs));
    return {std::move(mirror), std::move(raw0)};
  };
  if (o.stack.stripe_count <= 1) {
    auto [dev, raw] = build_position(o.device_blocks, s.clock);
    s.raw = std::move(raw);
    s.timed = dev;
    opts.device = std::move(dev);
    return;
  }
  const std::uint64_t row =
      std::uint64_t{o.stack.stripe_count} * o.stack.stripe_chunk_blocks;
  if (row == 0 || o.device_blocks % row != 0) {
    throw util::PolicyError(
        "bench: device_blocks must divide into stripe_count stripes of "
        "whole stripe_chunk_blocks chunks");
  }
  const std::uint64_t per = o.device_blocks / o.stack.stripe_count;
  for (std::uint32_t i = 0; i < o.stack.stripe_count; ++i) {
    auto [dev, raw] = build_position(
        per, s.domain ? s.domain->shard_for(i) : s.clock);
    s.stripe_raw.push_back(std::move(raw));
    s.stripe_timed.push_back(std::move(dev));
  }
  opts.stripe_devices = s.stripe_timed;
  s.raw = std::make_shared<dm::StripedTarget>(s.stripe_raw,
                                              o.stack.stripe_chunk_blocks);
}
}  // namespace

BenchStack make_scheme_stack(const std::string& scheme_name, bool hidden,
                             const StackOptions& o) {
  BenchStack s;
  s.clock = std::make_shared<util::SimClock>();
  api::SchemeOptions opts;
  build_backing(s, o, opts);
  opts.public_password = kPub;
  opts.rng_seed = o.seed;
  opts.num_volumes = 8;
  opts.chunk_blocks = 16;  // 64 KiB chunks, the dm-thin default
  opts.kdf_iterations = 2000;
  opts.fs_inode_count = 1024;
  opts.lambda = o.lambda;
  opts.x = o.x;
  opts.random_allocation = o.mobiceal_random_alloc;
  opts.skip_random_fill = o.skip_random_fill;

  const auto& entry = api::SchemeRegistry::entry(scheme_name);
  if (entry.capabilities.has(api::Capability::kHiddenVolume)) {
    opts.hidden_passwords = {kHid};
  } else if (hidden) {
    throw util::PolicyError("bench: scheme '" + scheme_name +
                            "' has no hidden volume");
  }

  s.scheme = api::SchemeRegistry::create(scheme_name, opts);
  const auto unlocked = s.scheme->unlock(hidden ? kHid : kPub);
  if (!unlocked.ok ||
      unlocked.volume != (hidden ? api::VolumeClass::kHidden
                                 : api::VolumeClass::kPublic)) {
    throw util::PolicyError("bench: unlock failed for " + scheme_name);
  }
  s.fs = &s.scheme->data_fs();
  return s;
}

BenchStack make_raw_ext_stack(const StackOptions& o) {
  BenchStack s;
  s.clock = std::make_shared<util::SimClock>();
  api::SchemeOptions opts;
  build_backing(s, o, opts);
  s.owned_fs = fs::ExtFs::format(api::stack_device_for(opts), 1024);
  s.fs = s.owned_fs.get();
  return s;
}

namespace {
util::Bytes workload_chunk(std::size_t n, std::uint64_t salt) {
  // dd streams /dev/zero; we add a cheap per-chunk salt so compressible
  // content doesn't accidentally short-circuit any layer.
  util::Bytes out(n, 0);
  util::store_le<std::uint64_t>(out.data(), salt);
  return out;
}
}  // namespace

double dd_write(BenchStack& stack, const std::string& path,
                std::uint64_t bytes, std::size_t chunk_bytes) {
  const double t0 = stack.clock->now_seconds();
  if (!stack.fs->exists(path)) stack.fs->create(path);
  std::uint64_t off = 0;
  std::uint64_t salt = 0;
  while (off < bytes) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(chunk_bytes,
                                                         bytes - off));
    const util::Bytes chunk = workload_chunk(n, ++salt);
    stack.fs->write(path, off, chunk);
    off += n;
  }
  stack.fs->sync();  // conv=fdatasync
  return stack.clock->now_seconds() - t0;
}

double dd_read(BenchStack& stack, const std::string& path,
               std::uint64_t bytes, std::size_t chunk_bytes) {
  const double t0 = stack.clock->now_seconds();
  std::uint64_t off = 0;
  while (off < bytes) {
    const auto chunk = stack.fs->read(path, off, chunk_bytes);
    if (chunk.empty()) break;
    off += chunk.size();
  }
  return stack.clock->now_seconds() - t0;
}

double bonnie_write(BenchStack& stack, const std::string& path,
                    std::uint64_t bytes) {
  return dd_write(stack, path, bytes, 8 * 1024);
}

double bonnie_read(BenchStack& stack, const std::string& path,
                   std::uint64_t bytes) {
  return dd_read(stack, path, bytes, 8 * 1024);
}

double bonnie_rewrite(BenchStack& stack, const std::string& path,
                      std::uint64_t bytes) {
  const double t0 = stack.clock->now_seconds();
  std::uint64_t off = 0;
  while (off < bytes) {
    auto chunk = stack.fs->read(path, off, 8 * 1024);
    if (chunk.empty()) break;
    for (auto& b : chunk) b ^= 0x5A;
    stack.fs->write(path, off, chunk);
    off += chunk.size();
  }
  stack.fs->sync();
  return stack.clock->now_seconds() - t0;
}

JsonReport::JsonReport(std::string bench_name, int argc, char** argv)
    : bench_(std::move(bench_name)) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      path_ = argv[i + 1];
      return;
    }
    if (arg.rfind("--json=", 0) == 0) {
      path_ = arg.substr(7);
      return;
    }
  }
  // NOLINTNEXTLINE(concurrency-mt-unsafe): bench setup, before any threads
  if (const char* dir = std::getenv("MOBICEAL_BENCH_JSON")) {
    path_ = std::string(dir);
    if (!path_.empty() && path_.back() != '/') path_ += '/';
    path_ += "BENCH_" + bench_ + ".json";
  }
}

void JsonReport::add(const std::string& metric, double value) {
  metrics_.emplace_back(metric, value);
}

JsonReport::~JsonReport() {
  if (path_.empty()) return;
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench: cannot write %s\n", path_.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"metrics\": {\n",
               bench_.c_str());
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    // %.17g round-trips doubles exactly; NaN/Inf never appear (virtual
    // clocks are finite), but guard with 0 to keep the JSON parseable.
    const double v = std::isfinite(metrics_[i].second) ? metrics_[i].second
                                                       : 0.0;
    std::fprintf(f, "    \"%s\": %.17g%s\n", metrics_[i].first.c_str(), v,
                 i + 1 < metrics_.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
}

std::uint64_t env_bench_bytes(std::uint64_t def_mb) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): bench setup, before any threads
  if (const char* v = std::getenv("MOBICEAL_BENCH_MB")) {
    const long mb = std::atol(v);
    if (mb > 0) return static_cast<std::uint64_t>(mb) << 20;
  }
  return def_mb << 20;
}

int env_bench_reps(int def_reps) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): bench setup, before any threads
  if (const char* v = std::getenv("MOBICEAL_BENCH_REPS")) {
    const int r = std::atoi(v);
    if (r > 0) return r;
  }
  return def_reps;
}

}  // namespace mobiceal::bench
