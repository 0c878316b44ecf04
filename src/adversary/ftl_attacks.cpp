#include "adversary/ftl_attacks.hpp"

#include <algorithm>
#include <cmath>
#include <set>

namespace mobiceal::adversary {

namespace {

/// FNV-1a over a page — a fixed, platform-independent content fingerprint
/// (std::hash is implementation-defined and would break replayability).
/// All payloads down here are ciphertext or seeded noise, so accidental
/// collisions between distinct pages are negligible.
std::uint64_t page_fingerprint(util::ByteSpan data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Data chunk a logical page belongs to, or kUnmapped when the page lies
/// outside the pool's data region.
std::uint64_t chunk_of_page(std::uint64_t logical, const PoolLayout& layout,
                            const thin::Superblock& sb) {
  if (logical < layout.data_start_block) return thin::kUnmapped;
  const std::uint64_t chunk =
      (logical - layout.data_start_block) / sb.chunk_blocks;
  return chunk < sb.nr_chunks ? chunk : thin::kUnmapped;
}

/// Distinct data chunks touched by fresh host programs, split into chunks
/// the decoy-decrypted public volume accounts for and everything else
/// (other volumes' chunks AND chunks no volume maps — flash history keeps
/// freed chunks readable, unlike the metadata the block adversary parses).
struct TouchedChunks {
  std::set<std::uint64_t> public_chunks;
  std::set<std::uint64_t> non_public_chunks;
};

TouchedChunks touched_chunks(const FlashDelta& delta,
                             const ThinMetadataReader& after_meta,
                             const PoolLayout& layout) {
  const auto pub_vec = after_meta.chunks_of_volume(0);
  const std::set<std::uint64_t> pub(pub_vec.begin(), pub_vec.end());
  TouchedChunks t;
  for (const std::uint64_t logical : delta.fresh_logical) {
    const std::uint64_t chunk =
        chunk_of_page(logical, layout, after_meta.superblock());
    if (chunk == thin::kUnmapped) continue;  // metadata/header churn
    if (pub.count(chunk))
      t.public_chunks.insert(chunk);
    else
      t.non_public_chunks.insert(chunk);
  }
  return t;
}

}  // namespace

FlashDelta compute_flash_delta(const ftl::RawFlashSnapshot& before,
                               const ftl::RawFlashSnapshot& after) {
  FlashDelta d;
  // Fingerprints of everything that was already on the flash: a fresh
  // program matching one of these is GC moving old data, not the host.
  std::set<std::uint64_t> known;
  for (std::uint64_t p = 0; p < before.geometry.phys_pages; ++p) {
    if (before.pages[p].state == ftl::PageState::kFree) continue;
    known.insert(page_fingerprint(before.page_data(p)));
  }
  for (std::uint64_t p = 0; p < after.geometry.phys_pages; ++p) {
    const auto& pg = after.pages[p];
    if (pg.state == ftl::PageState::kFree) continue;
    if (pg.seq <= before.max_seq) continue;
    if (known.count(page_fingerprint(after.page_data(p)))) continue;
    if (pg.logical != ftl::kUnmappedPage)
      d.fresh_logical.push_back(pg.logical);
  }
  return d;
}

AttackReport ftl_unaccounted_programs_attack(
    const FlashDelta& delta, const ThinMetadataReader& after_meta,
    const PoolLayout& layout) {
  const TouchedChunks t = touched_chunks(delta, after_meta, layout);
  AttackReport r;
  r.statistic = static_cast<double>(t.non_public_chunks.size());
  r.threshold = 0.0;
  r.suspects_hidden_data = !t.non_public_chunks.empty();
  r.reasoning =
      std::to_string(t.non_public_chunks.size()) +
      " data chunk(s) received fresh flash programs the public volume "
      "cannot account for (out-of-place history, GC copies excluded)";
  return r;
}

AttackReport ftl_program_budget_attack(const FlashDelta& delta,
                                       const ThinMetadataReader& after_meta,
                                       const PoolLayout& layout,
                                       double lambda, double z) {
  const TouchedChunks t = touched_chunks(delta, after_meta, layout);
  const double n = static_cast<double>(t.public_chunks.size());
  // Same budget as the block-level Attack C — trigger probability <= 1/2,
  // Exp(lambda) bursts — but fed with what the *flash* remembers, which
  // includes chunks freed and reused since the previous seizure.
  const double mean_cap = n * 0.5 / lambda;
  const double per_alloc_var = 0.5 * (2.0 / (lambda * lambda));
  const double drift_var = n * n * (1.0 / 48.0) / (lambda * lambda);
  const double sigma = std::sqrt(n * per_alloc_var + drift_var);
  AttackReport r;
  r.statistic = static_cast<double>(t.non_public_chunks.size());
  r.threshold = mean_cap + z * sigma;
  r.suspects_hidden_data = r.statistic > r.threshold;
  r.reasoning = "non-public flash history " +
                std::to_string(t.non_public_chunks.size()) +
                " chunk(s) vs maximal dummy budget " +
                std::to_string(r.threshold) + " for " +
                std::to_string(t.public_chunks.size()) +
                " publicly-touched chunk(s)";
  return r;
}

AttackReport ftl_tail_locality_attack(const FlashDelta& delta,
                                      std::uint64_t logical_pages,
                                      double tail_fraction) {
  const std::uint64_t tail_start = static_cast<std::uint64_t>(
      tail_fraction * static_cast<double>(logical_pages));
  std::uint64_t in_tail = 0;
  for (const std::uint64_t logical : delta.fresh_logical)
    if (logical >= tail_start) ++in_tail;
  AttackReport r;
  r.statistic = static_cast<double>(in_tail);
  r.threshold = 0.0;
  r.suspects_hidden_data = in_tail > 0;
  r.reasoning =
      std::to_string(in_tail) +
      " fresh host program(s) mapped into the tail region [" +
      std::to_string(tail_start) + ", " + std::to_string(logical_pages) +
      ") where Mobiflage-style schemes hide their volume and a "
      "front-allocating decoy fs never writes";
  return r;
}

// -- the raw-flash security game ---------------------------------------------

namespace {

/// What the adversary extracts from the chips it seized before and after
/// the observation window.
struct FlashWindow {
  /// Everything programmed after the baseline seizure, GC copies
  /// content-matched away.
  FlashDelta delta;
  /// The logical image reconstructed from the last seizure.
  Snapshot logical;
};

/// Thin metadata and pool layout parsed out of the logical image.
struct ParsedPool {
  ThinMetadataReader meta;
  PoolLayout layout;
  ParsedPool(const FlashWindow& w, const std::string& scheme)
      : meta(w.logical),
        layout(scheme == "mobipluto"
                   ? PoolLayout::mobipluto(meta.superblock(),
                                           w.logical.block_size)
                   : PoolLayout::mobiceal(meta.superblock(),
                                          w.logical.block_size)) {}
};

}  // namespace

GameResult run_ftl_game(const FtlGameConfig& cfg) {
  Game<FlashWindow> game;
  game.world = [&cfg](bool hidden_world, std::uint64_t trial_seed,
                      util::Rng& rng) {
    // The stack is built exactly as in the block-level game, except the
    // device it defends is an FTL export — the adversary images the medium
    // *below* it.
    auto clock = std::make_shared<util::SimClock>();
    ftl::FtlConfig fcfg;
    fcfg.logical_blocks = cfg.disk_blocks;
    fcfg.pages_per_block = cfg.ftl_pages_per_block;
    fcfg.over_provision_pct = cfg.ftl_over_provision_pct;
    auto flash = ftl::FtlDevice::create(fcfg, clock);
    GameUser user(cfg, flash, trial_seed, rng, clock, "ftl-game");
    user.baseline();
    const ftl::RawFlashSnapshot first = flash->snapshot_raw_flash();
    user.rounds(hidden_world, cfg.rounds);
    const ftl::RawFlashSnapshot last = flash->snapshot_raw_flash();
    return FlashWindow{compute_flash_delta(first, last),
                       Snapshot{last.logical_image(),
                                last.geometry.block_size}};
  };
  const auto thin = [](const FlashWindow& w) {
    return has_thin_pool(w.logical);
  };
  game.distinguishers = {
      {"ftl-unaccounted-programs",
       [&cfg](const FlashWindow& w) {
         const ParsedPool pool(w, cfg.scheme);
         return ftl_unaccounted_programs_attack(w.delta, pool.meta,
                                                pool.layout);
       },
       thin},
      {"ftl-program-budget",
       [&cfg](const FlashWindow& w) {
         const ParsedPool pool(w, cfg.scheme);
         return ftl_program_budget_attack(w.delta, pool.meta, pool.layout,
                                          cfg.lambda);
       },
       thin},
      {"ftl-tail-locality",
       [&cfg](const FlashWindow& w) {
         return ftl_tail_locality_attack(w.delta, cfg.disk_blocks,
                                         cfg.tail_fraction);
       }},
  };
  return game.play(cfg.trials, cfg.seed);
}

}  // namespace mobiceal::adversary
