// Raw-flash layout attacks — the adversary of "The Block-based Mobile PDE
// Systems Are Not Secure — Experimental Attacks" (arXiv 2203.16349).
//
// The block-level adversary (attacks.hpp) sees the logical array the FTL
// exports. This adversary desolders the chip: it images the physical page
// array, the OOB mapping metadata, and the program sequence numbers
// (ftl::RawFlashSnapshot). Because the FTL writes out-of-place, the flash
// keeps a *history* the logical view destroys — superseded pages stay
// readable as stale copies until GC erases them, and sequence numbers
// order every program between two seizures. A logical overwrite hides
// nothing down here.
//
// The distinguishers below mirror the block-level ones but count *fresh
// programs* (sequence number above the previous snapshot's maximum)
// instead of metadata deltas. GC relocations are excluded by content
// matching: a relocated page carries bytes that already existed somewhere
// in the previous image, so only genuinely new host writes remain.
//
// Expected outcomes (docs/ADVERSARY.md, Game 4; gated in bench_ftl):
// ftl_unaccounted_programs_attack breaks MobiPluto (no dummy writes), and
// ftl_tail_locality_attack breaks Mobiflage (hidden volume in the tail of
// the span); MobiCeal's dummies fire in both worlds, so the counting
// distinguishers stay near advantage 0.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "adversary/attacks.hpp"
#include "adversary/game.hpp"
#include "adversary/metadata_reader.hpp"
#include "ftl/ftl_device.hpp"

namespace mobiceal::adversary {

/// What changed on the flash between two raw snapshots of the same chip.
struct FlashDelta {
  /// Logical page of every fresh host program, in physical-page order:
  /// pages programmed since `before` (seq > before.max_seq, valid or stale
  /// — flash history counts superseded copies too) whose content did not
  /// already exist in `before` (GC relocations are excluded).
  std::vector<std::uint64_t> fresh_logical;
};

FlashDelta compute_flash_delta(const ftl::RawFlashSnapshot& before,
                               const ftl::RawFlashSnapshot& after);

/// Attack F — unaccounted fresh programs (the raw-flash twin of Attack B,
/// fatal for MobiPluto): every fresh host program whose logical page falls
/// in a data chunk NOT mapped by the decoy-decrypted public volume is
/// unaccountable for a scheme without dummy writes. `after_meta`/`layout`
/// come from parsing the thin metadata out of the snapshot's logical image.
AttackReport ftl_unaccounted_programs_attack(
    const FlashDelta& delta, const ThinMetadataReader& after_meta,
    const PoolLayout& layout);

/// Attack G — program-budget analysis (the raw-flash twin of Attack C):
/// distinct non-public data chunks touched by fresh host programs, checked
/// against the maximal dummy budget implied by the distinct public chunks
/// touched. Unlike the block-level attack this counts chunks the flash
/// remembers even after they were freed — history GC hasn't erased yet.
AttackReport ftl_program_budget_attack(const FlashDelta& delta,
                                       const ThinMetadataReader& after_meta,
                                       const PoolLayout& layout,
                                       double lambda, double z = 3.0);

/// Attack H — tail-locality analysis (defeats Mobiflage, no thin metadata
/// needed): Mobiflage hides its ext volume at H(pwd||salt) mapped into
/// [tail_fraction, 0.95] of the logical span while the FAT32 decoy
/// allocates from the front, so fresh host programs with logical page >=
/// tail_fraction * logical_pages have no decoy explanation.
AttackReport ftl_tail_locality_attack(const FlashDelta& delta,
                                      std::uint64_t logical_pages,
                                      double tail_fraction = 0.70);

/// The multi-seizure game of security_game.hpp, replayed with the stack on
/// an ftl::FtlDevice and the adversary holding raw-flash snapshots.
struct FtlGameConfig : GameConfig {
  FtlGameConfig() {
    trials = 16;
    rounds = 2;
    public_files_per_round = 8;
    public_file_bytes = 64 * 1024;
    hidden_file_bytes = 48 * 1024;
    disk_blocks = 8192;  // logical pages the FTL exports (4 KiB each)
    num_volumes = 4;
  }
  std::uint32_t ftl_pages_per_block = 32;
  std::uint32_t ftl_over_provision_pct = 10;
  double tail_fraction = 0.70;
};

/// Runs the raw-flash game. Deterministic per (config.seed). On schemes
/// without a thin pool (mobiflage) the metadata-based distinguishers never
/// apply (0/0) and tail locality alone judges.
GameResult run_ftl_game(const FtlGameConfig& config);

}  // namespace mobiceal::adversary
