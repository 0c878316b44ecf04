#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>

#include "api/scheme_registry.hpp"
#include "api/stack_config.hpp"
#include "blockdev/timed_device.hpp"
#include "ftl/ftl_device.hpp"
#include "util/clock_domain.hpp"
#include "util/rng.hpp"

namespace mobiceal::e2e {

namespace {

constexpr std::uint64_t kBlock = 4096;
constexpr std::uint64_t kMiB = 1 << 20;
constexpr char kPublicPassword[] = "e2e-public";
constexpr char kHiddenPassword[] = "e2e-hidden";
/// The modelled phone's entropy (SchemeOptions::rng_seed). Fixed so that
/// the dummy-write rate, drawn once per boot from this seed, is the same
/// on every run.
constexpr std::uint64_t kDeviceSeed = 1;
/// Draws each workload's request pattern (which files and blocks the
/// requests touch). Fixed, so that a workload is one request sequence and
/// its virtual results do not move with `--seed`.
constexpr std::uint64_t kPatternSeed = 2;

// ---- block contents ----------------------------------------------------

/// Block contents: a seed-drawn pattern block, chosen by the block's index,
/// stamped with (file, block, version) — every block written is distinct
/// and can be checked on read-back without keeping a copy of it.
class Content {
 public:
  static constexpr std::uint64_t kPatternBlocks = 64;

  explicit Content(std::uint64_t seed) : pattern_(kPatternBlocks * kBlock) {
    util::Xoshiro256 rng(seed ^ 0x5ca1ab1e0ddba11ULL);
    rng.fill(pattern_);
  }

  /// The unstamped body of `block`; it depends only on block % the
  /// pattern size, so a request buffer at the same phase can be reused.
  void body(std::uint8_t* dst, std::uint64_t block) const {
    std::memcpy(dst, source(block), kBlock);
  }

  static void stamp(std::uint8_t* p, std::uint64_t file, std::uint64_t block,
                    std::uint32_t version) {
    util::store_le<std::uint64_t>(p, file);
    util::store_le<std::uint64_t>(p + 8, block);
    util::store_le<std::uint32_t>(p + 16, version);
    util::store_le<std::uint32_t>(p + 20, 0x45324542);
  }

  bool matches(const std::uint8_t* got, std::uint64_t file,
               std::uint64_t block, std::uint32_t version) const {
    std::uint8_t head[kStampBytes];
    stamp(head, file, block, version);
    return std::memcmp(got, head, kStampBytes) == 0 &&
           std::memcmp(got + kStampBytes, source(block) + kStampBytes,
                       kBlock - kStampBytes) == 0;
  }

 private:
  static constexpr std::size_t kStampBytes = 24;

  const std::uint8_t* source(std::uint64_t block) const {
    return pattern_.data() + (block % kPatternBlocks) * kBlock;
  }

  util::Bytes pattern_;
};

// ---- the stack ---------------------------------------------------------

struct Stack {
  std::shared_ptr<util::SimClock> clock;  // shard 0 when sharded
  std::shared_ptr<util::ClockDomain> domain;
  std::vector<std::shared_ptr<blockdev::MemBlockDevice>> mem;
  std::vector<std::shared_ptr<blockdev::TimedDevice>> timed;
  std::vector<std::shared_ptr<ftl::FtlDevice>> ftl;
  std::vector<ftl::FtlStats> ftl_start;
  std::unique_ptr<api::PdeScheme> scheme;
};

api::StackConfig stack_config(const WorkloadSpec& spec) {
  std::vector<std::string> args{"mobiceal_e2e"};
  args.insert(args.end(), spec.knobs.begin(), spec.knobs.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return api::StackConfig::from_knobs(static_cast<int>(argv.size()),
                                      argv.data());
}

/// The virtual clock, or with striping and clock shards a ClockDomain
/// whose shard 0 is the clock the file system and benchmark read.
void make_clocks(Stack& st, const api::StackConfig& cfg,
                 api::SchemeOptions& opts) {
  if (cfg.stripe_count > 1 && cfg.clock_shards > 1) {
    st.domain = std::make_shared<util::ClockDomain>(cfg.clock_shards);
    st.clock = st.domain->shard(0);
    opts.clock_domain = st.domain;
  } else {
    st.clock = std::make_shared<util::SimClock>();
  }
  opts.clock = st.clock;
}

/// One backing device per stripe: RAM behind the eMMC service-time model,
/// or an FTL with its own flash timing.
void build_backing(Stack& st, const api::StackConfig& cfg,
                   std::uint64_t device_blocks, api::SchemeOptions& opts) {
  const std::uint32_t stripes = std::max<std::uint32_t>(1, cfg.stripe_count);
  const std::uint64_t per = device_blocks / stripes;
  std::vector<std::shared_ptr<blockdev::BlockDevice>> devs;
  for (std::uint32_t i = 0; i < stripes; ++i) {
    const auto clock = st.domain ? st.domain->shard_for(i) : st.clock;
    if (cfg.ftl_mode != 0) {
      ftl::FtlConfig f;
      f.logical_blocks = per;
      f.pages_per_block = cfg.ftl_pages_per_block;
      f.over_provision_pct = cfg.ftl_over_provision_pct;
      f.timing = ftl::FlashTimingModel::mlc_nand();
      auto dev = ftl::FtlDevice::create(f, clock);
      st.ftl.push_back(dev);
      devs.push_back(std::move(dev));
    } else {
      auto mem = std::make_shared<blockdev::MemBlockDevice>(per);
      auto timed = std::make_shared<blockdev::TimedDevice>(
          mem, blockdev::TimingModel::nexus4_emmc(), clock);
      timed->set_queue_depth(cfg.queue_depth);
      st.mem.push_back(std::move(mem));
      st.timed.push_back(timed);
      devs.push_back(std::move(timed));
    }
  }
  if (stripes > 1) {
    opts.stripe_devices = std::move(devs);
  } else {
    opts.device = std::move(devs.front());
  }
}

void reset_counters(Stack& st) {
  for (const auto& t : st.timed) t->reset_counters();
  st.ftl_start.clear();
  for (const auto& f : st.ftl) st.ftl_start.push_back(f->stats());
}

DeviceCounters read_counters(const Stack& st) {
  DeviceCounters c;
  for (const auto& t : st.timed) {
    c.write_blocks += t->writes();
    c.read_blocks += t->reads();
    c.flushes += t->flushes();
    c.sequential_ios += t->sequential_ios();
    c.random_ios += t->random_ios();
    c.async_ios += t->async_ios();
    c.stripe_write_blocks.push_back(t->writes());
  }
  for (std::size_t i = 0; i < st.ftl.size(); ++i) {
    const ftl::FtlStats& now = st.ftl[i]->stats();
    const ftl::FtlStats& then = st.ftl_start[i];
    const std::uint64_t writes = now.host_writes - then.host_writes;
    c.write_blocks += writes;
    c.read_blocks += now.host_reads - then.host_reads;
    c.ftl_host_writes += writes;
    c.ftl_programs += now.programs - then.programs;
    c.ftl_gc_relocations += now.gc_relocations - then.gc_relocations;
    c.ftl_erases += now.erases - then.erases;
    c.stripe_write_blocks.push_back(writes);
  }
  return c;
}

/// 64-bit digest (xxHash64-style lanes) — fast enough to cover a 512 MiB
/// image in a fraction of a second.
std::uint64_t digest_update(std::uint64_t h, util::ByteSpan data) {
  constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
  constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
  const auto rotl = [](std::uint64_t x, int r) {
    return (x << r) | (x >> (64 - r));
  };
  std::uint64_t acc[4] = {h + kP1, h ^ kP2, h, h - kP1};
  std::size_t i = 0;
  for (; i + 32 <= data.size(); i += 32) {
    for (int lane = 0; lane < 4; ++lane) {
      const auto w = util::load_le<std::uint64_t>(data.data() + i + 8 * lane);
      acc[lane] = rotl(acc[lane] + w * kP2, 31) * kP1;
    }
  }
  for (; i < data.size(); ++i) {
    acc[0] = rotl(acc[0] ^ (data[i] * kP1), 11) * kP2;
  }
  std::uint64_t out = (rotl(acc[0], 1) + rotl(acc[1], 7) + rotl(acc[2], 12) +
                       rotl(acc[3], 18)) ^
                      data.size();
  out *= kP1;
  return out ^ (out >> 29);
}

std::uint64_t image_digest(Stack& st) {
  std::uint64_t h = 0;
  for (const auto& m : st.mem) h = digest_update(h, m->raw());
  // The FTL's logical image is read a slice at a time: a whole copy would
  // add its size to the process's peak RSS.
  constexpr std::uint64_t kSlice = 256;
  util::Bytes slice(kSlice * kBlock);
  for (const auto& f : st.ftl) {
    for (std::uint64_t b = 0; b < f->num_blocks(); b += kSlice) {
      const std::uint64_t n = std::min(kSlice, f->num_blocks() - b);
      f->read_logical_untimed(b, n, {slice.data(), n * kBlock});
      h = digest_update(h, {slice.data(), n * kBlock});
    }
  }
  return h;
}

// ---- the client --------------------------------------------------------

/// The closed-loop client: issues one call at a time into the mounted
/// file system, timing each on the virtual clock and (when tracing) under
/// a span, counting requests and failures. A call that throws fails its
/// request and the workload carries on.
class Client {
 public:
  Client(Stack& st, Tracer& tracer, const Content& content, RepResult& r)
      : st_(st), tracer_(tracer), content_(content), r_(r) {}

  api::PdeScheme& scheme() { return *st_.scheme; }
  RepResult& result() { return r_; }

  /// Starts one client request; returns its id.
  std::uint64_t begin_op() { return ++r_.attempted; }

  void fail(std::uint64_t op, const std::string& why) {
    if (failed_op_ == op) return;
    failed_op_ = op;
    if (r_.failed++ < 5) std::fprintf(stderr, "e2e: request %llu failed: %s\n",
                                      static_cast<unsigned long long>(op),
                                      why.c_str());
  }

  /// One call into the stack under a span named `name`. Returns its
  /// virtual duration, or nullopt (request failed) when it threw.
  template <class F>
  std::optional<std::uint64_t> call(const char* name, std::uint64_t op,
                                    F&& fn) {
    ScopedSpan span(tracer_, name, op);
    const std::uint64_t v0 = st_.clock->now();
    try {
      fn();
    } catch (const std::exception& e) {
      fail(op, std::string(name) + ": " + e.what());
      return std::nullopt;
    }
    return st_.clock->now() - v0;
  }

  std::optional<std::uint64_t> create(const std::string& path,
                                      std::uint64_t op) {
    return call("fs.create", op, [&] { fs().create(path); });
  }

  std::optional<std::uint64_t> mkdir(const std::string& path,
                                     std::uint64_t op) {
    return call("fs.create", op, [&] { fs().mkdir(path); });
  }

  std::optional<std::uint64_t> sync(std::uint64_t op) {
    return call("fs.sync", op, [&] { fs().sync(); });
  }

  /// Writes blocks [first, first + n) of `file`, all at `version`.
  std::optional<std::uint64_t> write(const std::string& path,
                                     std::uint64_t file, std::uint64_t first,
                                     std::uint64_t n, std::uint32_t version,
                                     std::uint64_t op) {
    const std::uint64_t phase = first % Content::kPatternBlocks;
    if (buf_.size() != n * kBlock || buf_phase_ != phase) {
      buf_.resize(n * kBlock);
      for (std::uint64_t i = 0; i < n; ++i) {
        content_.body(buf_.data() + i * kBlock, first + i);
      }
      buf_phase_ = phase;
    }
    for (std::uint64_t i = 0; i < n; ++i) {
      Content::stamp(buf_.data() + i * kBlock, file, first + i, version);
    }
    r_.user_write_blocks += n;
    return call("fs.write", op,
                [&] { fs().write(path, first * kBlock, buf_); });
  }

  /// Reads blocks [first, first + n) and checks each against the version
  /// last written (`versions[block]`, or 0 when null).
  std::optional<std::uint64_t> read(const std::string& path,
                                    std::uint64_t file, std::uint64_t first,
                                    std::uint64_t n,
                                    const std::vector<std::uint32_t>* versions,
                                    std::uint64_t op) {
    // Assigning into the kept buffer frees the previous read's buffer
    // inside this call's span: releasing what FileSystem::read returned is
    // part of the call's cost.
    const auto v = call("fs.read", op, [&] {
      got_ = fs().read(path, first * kBlock, n * kBlock);
    });
    if (!v) return v;
    r_.user_read_blocks += n;
    bool ok = got_.size() == n * kBlock;
    for (std::uint64_t i = 0; ok && i < n; ++i) {
      const std::uint64_t b = first + i;
      ok = content_.matches(got_.data() + i * kBlock, file, b,
                            versions ? (*versions)[b] : 0);
    }
    if (!ok) fail(op, "read-back mismatch in " + path);
    return v;
  }

 private:
  fs::FileSystem& fs() { return st_.scheme->data_fs(); }

  Stack& st_;
  Tracer& tracer_;
  const Content& content_;
  RepResult& r_;
  util::Bytes buf_;  // request buffer, bodies at phase buf_phase_
  std::uint64_t buf_phase_ = ~std::uint64_t{0};
  util::Bytes got_;  // the last read's data
  std::uint64_t failed_op_ = 0;
};

// ---- workload pieces ---------------------------------------------------

/// dd if=... of=path bs=req conv=fdatasync: create, sequential writes,
/// one sync. The create and the sync count toward the rate; each write
/// request is one latency sample.
void dd_write(Client& c, const std::string& path, std::uint64_t file,
              std::uint64_t bytes, std::uint64_t req, Rate& rate,
              std::vector<std::uint64_t>* lat) {
  if (const auto v = c.create(path, c.begin_op())) rate.virt_ns += *v;
  const std::uint64_t per = req / kBlock;
  for (std::uint64_t b = 0; b < bytes / kBlock; b += per) {
    const auto v = c.write(path, file, b, per, 0, c.begin_op());
    if (!v) continue;
    rate.virt_ns += *v;
    if (lat) lat->push_back(*v);
  }
  if (const auto v = c.sync(c.begin_op())) rate.virt_ns += *v;
  rate.bytes += bytes;
}

/// Sequential read-back of a whole file in `req` requests.
void dd_read(Client& c, const std::string& path, std::uint64_t file,
             std::uint64_t bytes, std::uint64_t req,
             const std::vector<std::uint32_t>* versions, Rate& rate,
             std::vector<std::uint64_t>* lat) {
  const std::uint64_t per = req / kBlock;
  for (std::uint64_t b = 0; b < bytes / kBlock; b += per) {
    const auto v = c.read(path, file, b, per, versions, c.begin_op());
    if (!v) continue;
    rate.virt_ns += *v;
    if (lat) lat->push_back(*v);
  }
  rate.bytes += bytes;
}

/// The end of every session: lock-screen fast switch into the hidden
/// volume (Sec. IV-D), then a dd write and read-back there — the same
/// stack without dummy writes.
void hidden_tail(Client& c, const WorkloadSpec& spec, std::uint64_t id) {
  RepResult& r = c.result();
  const std::uint64_t op = c.begin_op();
  bool switched = false;
  const auto v = c.call("api.switch", op, [&] {
    switched = c.scheme().switch_volume(kHiddenPassword);
  });
  if (!v) return;
  if (!switched) {
    c.fail(op, "hidden password refused");
    return;
  }
  r.switch_ns = *v;
  dd_write(c, "/hidden", id, spec.hidden_mib * kMiB, kMiB, r.hidden_write,
           nullptr);
  dd_read(c, "/hidden", id, spec.hidden_mib * kMiB, kMiB, nullptr,
          r.hidden_read, nullptr);
}

// ---- the workloads -----------------------------------------------------

/// paper_dd and striped_qd8: the paper's dd write + fdatasync, dd read.
void run_dd(Client& c, const WorkloadSpec& spec) {
  RepResult& r = c.result();
  const std::uint64_t bytes = spec.data_mib * kMiB;
  const std::uint64_t req = spec.request_kib * 1024;
  dd_write(c, "/dd", 1, bytes, req, r.write, &r.write_lat_ns);
  dd_read(c, "/dd", 1, bytes, req, nullptr, r.read, &r.read_lat_ns);
  hidden_tail(c, spec, 2);
}

/// app_fsync: many small files in one directory behind a writeback cache;
/// whole-file reads skewed to a hot eighth, 4 KiB overwrites each followed
/// by fsync, and every tenth write appending to a log.
void run_app_fsync(Client& c, const WorkloadSpec& spec, util::Rng& rng) {
  struct File {
    std::string path;
    std::uint64_t id;
    std::vector<std::uint32_t> versions;  // per block
  };
  RepResult& r = c.result();
  const std::uint64_t hot = std::max<std::uint64_t>(1, spec.files / 8);
  std::uint64_t next_file = 1;
  c.mkdir("/app", c.begin_op());
  std::vector<File> files;
  for (std::uint32_t i = 0; i < spec.files; ++i) {
    const std::uint64_t blocks = 1 + rng.next_below(8);
    files.push_back({"/app/f" + std::to_string(i), next_file++,
                     std::vector<std::uint32_t>(blocks, 0)});
    const File& f = files.back();
    const std::uint64_t op = c.begin_op();
    if (c.create(f.path, op)) c.write(f.path, f.id, 0, blocks, 0, op);
  }
  File log{"/app/log", next_file++, {}};
  c.create(log.path, c.begin_op());
  c.sync(c.begin_op());

  // Every fourth request writes, every tenth read goes outside the hot
  // set, and every tenth write appends to the log; the pattern generator
  // picks the files and blocks.
  std::uint64_t writes = 0, reads = 0;
  for (std::uint32_t k = 0; k < spec.ops; ++k) {
    const std::uint64_t op = c.begin_op();
    if (k % 4 == 3) {
      File* f = &log;
      std::uint64_t block = log.versions.size();
      if (++writes % 10 == 0) {
        log.versions.push_back(0);
      } else {
        f = &files[rng.next_below(files.size())];
        block = rng.next_below(f->versions.size());
        ++f->versions[block];
      }
      const auto w = c.write(f->path, f->id, block, 1, f->versions[block], op);
      const auto s = c.sync(op);
      if (!w || !s) continue;
      r.write.bytes += kBlock;
      r.write.virt_ns += *w + *s;
      r.write_lat_ns.push_back(*w + *s);
    } else {
      const std::uint64_t i = ++reads % 10 != 0
                                  ? rng.next_below(hot)
                                  : hot + rng.next_below(files.size() - hot);
      const File& f = files[i];
      const auto v = c.read(f.path, f.id, 0, f.versions.size(), &f.versions,
                            op);
      if (!v) continue;
      r.read.bytes += f.versions.size() * kBlock;
      r.read.virt_ns += *v;
      r.read_lat_ns.push_back(*v);
    }
  }
  // Read back every file once more: the final version of every block.
  for (const File& f : files) {
    c.read(f.path, f.id, 0, f.versions.size(), &f.versions, c.begin_op());
  }
  c.read(log.path, log.id, 0, log.versions.size(), &log.versions,
         c.begin_op());
  hidden_tail(c, spec, next_file);
}

/// ftl_gc: fill a file, then passes of 8 KiB rewrites over a pseudo-random
/// half of it with a sync per pass, so GC must copy live pages; dd read.
void run_ftl_gc(Client& c, const WorkloadSpec& spec, util::Rng& rng) {
  RepResult& r = c.result();
  const std::uint64_t id = 1;
  const std::uint64_t bytes = spec.data_mib * kMiB;
  std::vector<std::uint32_t> versions(bytes / kBlock, 0);
  Rate fill;
  dd_write(c, "/gc", id, bytes, kMiB, fill, nullptr);
  for (std::uint32_t pass = 0; pass < spec.passes; ++pass) {
    for (std::uint64_t b = 0; b + 2 <= versions.size(); b += 2) {
      if (rng.next_below(2) != 0) continue;
      const std::uint32_t version = ++versions[b];
      versions[b + 1] = version;
      const auto v = c.write("/gc", id, b, 2, version, c.begin_op());
      if (!v) continue;
      r.write.bytes += 2 * kBlock;
      r.write.virt_ns += *v;
      r.write_lat_ns.push_back(*v);
    }
    if (const auto v = c.sync(c.begin_op())) r.write.virt_ns += *v;
  }
  dd_read(c, "/gc", id, bytes, kMiB, &versions, r.read, &r.read_lat_ns);
  hidden_tail(c, spec, id + 1);
}

double percentile_ms(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::max<std::size_t>(rank, 1) - 1]) / 1e6;
}

}  // namespace

WorkloadSpec workload_spec(const std::string& name, bool smoke) {
  WorkloadSpec s;
  s.name = name;
  if (name == "paper_dd") {
    s.device_mib = smoke ? 32 : 256;
    s.data_mib = smoke ? 4 : 96;
    s.hidden_mib = smoke ? 2 : 32;
  } else if (name == "app_fsync") {
    s.knobs = {"--cache-blocks", smoke ? "64" : "1024", "--flusher", "0"};
    s.device_mib = smoke ? 32 : 128;
    s.inode_count = 2048;
    s.files = smoke ? 60 : 900;
    s.ops = smoke ? 400 : 20000;
    s.hidden_mib = smoke ? 1 : 8;
  } else if (name == "striped_qd8") {
    s.knobs = {"--stripes",      "4", "--queue-depth",  "8",
               "--crypto-lanes", "4", "--clock-shards", "4"};
    s.crypto_threads = 3;
    s.device_mib = smoke ? 64 : 512;
    s.data_mib = smoke ? 24 : 128;
    s.request_kib = 4096;
    s.hidden_mib = smoke ? 8 : 64;
  } else if (name == "ftl_gc") {
    s.knobs = {"--ftl", "1", "--ftl-over-provision", "7",
               "--ftl-pages-per-block", "64"};
    s.device_mib = smoke ? 16 : 32;
    s.data_mib = smoke ? 2 : 16;
    s.passes = smoke ? 2 : 16;
    s.hidden_mib = smoke ? 1 : 4;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return s;
}

double Rate::kbps() const {
  return virt_ns == 0 ? 0.0
                      : static_cast<double>(bytes) / 1024.0 /
                            (static_cast<double>(virt_ns) * 1e-9);
}

std::map<std::string, double> RepResult::virtual_metrics() const {
  return {
      {"write_kbps", write.kbps()},
      {"read_kbps", read.kbps()},
      {"write_p50_ms", percentile_ms(write_lat_ns, 0.50)},
      {"write_p99_ms", percentile_ms(write_lat_ns, 0.99)},
      {"read_p50_ms", percentile_ms(read_lat_ns, 0.50)},
      {"read_p99_ms", percentile_ms(read_lat_ns, 0.99)},
      {"hidden_write_kbps", hidden_write.kbps()},
      {"hidden_read_kbps", hidden_read.kbps()},
      {"switch_ms", static_cast<double>(switch_ns) / 1e6},
      {"virt_elapsed_ms", static_cast<double>(virt_elapsed_ns) / 1e6},
  };
}

RepResult run_rep(const WorkloadSpec& spec, std::uint64_t seed,
                  Tracer& tracer) {
  RepResult r;
  const api::StackConfig cfg = stack_config(spec);
  api::SchemeOptions opts;
  Stack st;
  make_clocks(st, cfg, opts);
  tracer.set_clock(st.clock.get());
  {
    ScopedSpan rep(tracer, "rep");
    const std::uint64_t setup0 = host_now_ns();
    {
      ScopedSpan setup(tracer, "setup");
      {
        ScopedSpan s(tracer, "blockdev.alloc");
        build_backing(st, cfg, spec.device_mib * (kMiB / kBlock), opts);
      }
      opts.stack = cfg;
      opts.public_password = kPublicPassword;
      opts.hidden_passwords = {kHiddenPassword};
      opts.rng_seed = kDeviceSeed;
      opts.fs_inode_count = spec.inode_count;
      {
        ScopedSpan s(tracer, "api.create");
        st.scheme = api::SchemeRegistry::create("mobiceal", opts);
      }
      api::UnlockResult unlocked;
      {
        ScopedSpan s(tracer, "api.unlock");
        unlocked = st.scheme->unlock(kPublicPassword);
      }
      if (!unlocked.ok || unlocked.volume != api::VolumeClass::kPublic) {
        throw std::runtime_error("public unlock failed");
      }
    }
    r.setup_s = static_cast<double>(host_now_ns() - setup0) * 1e-9;

    reset_counters(st);
    const Content content(seed);
    Client client(st, tracer, content, r);
    util::Xoshiro256 rng(kPatternSeed);
    const std::uint64_t virt0 = st.clock->now();
    const std::uint64_t host0 = host_now_ns();
    {
      ScopedSpan measure(tracer, "measure");
      if (spec.name == "app_fsync") {
        run_app_fsync(client, spec, rng);
      } else if (spec.name == "ftl_gc") {
        run_ftl_gc(client, spec, rng);
      } else {
        run_dd(client, spec);
      }
    }
    r.host_s = static_cast<double>(host_now_ns() - host0) * 1e-9;
    r.virt_elapsed_ns = st.clock->now() - virt0;
  }
  tracer.set_clock(nullptr);
  r.dev = read_counters(st);
  r.digest = image_digest(st);
  return r;
}

}  // namespace mobiceal::e2e
