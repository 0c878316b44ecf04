// StackConfig — the one typed tuning surface of the storage stack.
//
// Every stack knob (queue depth, cache geometry and policy, striping,
// crypto lanes, clock shards, background-flusher policy) lives in this
// struct, and every consumer — api::SchemeOptions / stack_device_for, the
// bench harness, the CLI — takes the struct, never loose fields. Knob
// parsing is a single registry of (flag, env var, setter) triples in
// stack_config.cpp; tools/lint/check_invariants.py bans new ad-hoc
// bench_knob/getenv("MOBICEAL_*") plumbing outside that registry, so a new
// knob is added exactly once and appears everywhere at once. Parameters
// that only one bench sets (mirror legs and fault plans of bench_degraded,
// the tenants of bench_fleet) are not stack knobs: they live in that bench.
#pragma once

#include <cstdint>

#include "cache/cache_target.hpp"

namespace mobiceal::api {

struct StackConfig {
  /// Device queue depth for the async submit engine. 1 (the default)
  /// keeps the historical fully-serial service model bit-for-bit, so
  /// committed baselines stay comparable; >1 overlaps transfer phases and
  /// lets dm-crypt pipeline cipher work against in-flight requests.
  /// Flag --queue-depth, env MOBICEAL_QUEUE_DEPTH.
  std::uint32_t queue_depth = 1;

  /// Block cache between fs and crypt (cache::CacheTarget), in blocks.
  /// 0 (default) builds the exact pre-cache stack.
  /// Flag --cache-blocks, env MOBICEAL_CACHE_BLOCKS.
  std::uint64_t cache_blocks = 0;

  /// Writeback (true) or writethrough cache policy; demoted per scheme
  /// capability (api::cache_config_for).
  /// Flag --cache-writeback 0|1, env MOBICEAL_CACHE_WRITEBACK.
  bool cache_writeback = true;

  /// RAID-0 stripes under the whole stack (dm::StripedTarget over that
  /// many independently timed backing devices). 1 keeps the historical
  /// single-device stack byte- and time-identical.
  /// Flag --stripes, env MOBICEAL_STRIPES.
  std::uint32_t stripe_count = 1;

  /// Stripe chunk size in blocks (64 KiB at 4 KiB blocks).
  /// Flag --stripe-chunk, env MOBICEAL_STRIPE_CHUNK.
  std::uint32_t stripe_chunk_blocks = 16;

  /// Parallel crypto lanes (per-CPU kcryptd; dm::CryptCpuModel::lanes).
  /// Flag --crypto-lanes, env MOBICEAL_CRYPTO_LANES.
  std::uint32_t crypto_lanes = 1;

  /// util::ClockDomain shards for the striped stack: one SimClock shard
  /// per stripe lane, advancing independently between flush barriers.
  /// Meaningful only with stripe_count > 1; 1 (the default) keeps the
  /// single shared clock — byte- AND time-identical to all baselines.
  /// Flag --clock-shards, env MOBICEAL_CLOCK_SHARDS.
  std::uint32_t clock_shards = 1;

  /// Thin-pool allocator shard regions (thin::ShardedBitmap). 1 (the
  /// default) keeps the historical single-lock allocator bit-for-bit; >1
  /// splits the allocation bitmap into that many word-aligned regions with
  /// independent locks — the allocation *distribution* and the on-disk
  /// image are identical at any value.
  /// Flag --alloc-shards, env MOBICEAL_ALLOC_SHARDS.
  std::uint32_t alloc_shards = 1;

  /// Flash-translation-layer device (ftl::FtlDevice) under every backing
  /// position: page-mapped out-of-place writes over erase blocks, greedy
  /// GC, wear counters, and flash read/program/erase timing replacing the
  /// block-level TimingModel. 0 (the default) builds no FTL at all —
  /// byte- and time-identical to every committed baseline; 1 enables it.
  /// Flag --ftl, env MOBICEAL_FTL.
  std::uint32_t ftl_mode = 0;

  /// FTL over-provisioning: physical flash capacity beyond the logical
  /// export, in percent (floored at 4 erase blocks of GC slack).
  /// Flag --ftl-over-provision, env MOBICEAL_FTL_OVER_PROVISION.
  std::uint32_t ftl_over_provision_pct = 7;

  /// Flash pages per erase block (GC/erase granularity).
  /// Flag --ftl-pages-per-block, env MOBICEAL_FTL_PAGES_PER_BLOCK.
  std::uint32_t ftl_pages_per_block = 64;

  /// Background cache flusher (cache::FlusherPolicy). Disabled by default.
  /// Flags --flusher 0|1, --flusher-dirty-pct, --flusher-deadline-ns;
  /// envs MOBICEAL_FLUSHER, MOBICEAL_FLUSHER_DIRTY_PCT,
  /// MOBICEAL_FLUSHER_DEADLINE_NS.
  cache::FlusherPolicy flusher;

  bool operator==(const StackConfig&) const = default;

  /// Overrides fields from the knob registry, current values as defaults.
  /// Resolution order per knob: `--<flag> N` / `--<flag>=N` on the command
  /// line, else the environment variable, else the existing value. Values
  /// must be non-negative integers; garbage is rejected (the existing
  /// value survives), never read as 0.
  void apply_knobs(int argc, char** argv);

  /// Default-constructed config with the knob registry applied.
  static StackConfig from_knobs(int argc, char** argv) {
    StackConfig c;
    c.apply_knobs(argc, argv);
    return c;
  }

  /// True when `arg` is a registered knob flag ("--stripes" or
  /// "--stripes=4") — for CLIs that interleave knobs with positional
  /// arguments and need to recognise (or reject out-of-place) knobs
  /// without duplicating the registry.
  static bool is_knob_flag(const char* arg);
};

}  // namespace mobiceal::api
