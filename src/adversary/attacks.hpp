// Concrete multi-snapshot attacks (Sec. I, Sec. IV-A) and the statistics
// they rely on. Each attack consumes only what the threat model grants the
// adversary: raw snapshots, the coerced decoy password, and full knowledge
// of the design (including the dummy-write parameters x and lambda, which
// are fixed at initialisation and not secret).
#pragma once

#include <cstdint>
#include <string>

#include "adversary/metadata_reader.hpp"
#include "adversary/snapshot.hpp"

namespace mobiceal::adversary {

/// Verdict of one attack run.
struct AttackReport {
  bool suspects_hidden_data = false;
  std::string reasoning;
  double statistic = 0.0;  // attack-specific score
  double threshold = 0.0;  // decision boundary used
};

/// Growth of the pool between two snapshots, split by volume class.
/// The adversary decrypts V1 with the coerced decoy password, so "public"
/// (= thin volume 0) is ground truth for it; everything else is non-public.
struct ThinDelta {
  std::uint64_t public_new_chunks = 0;
  std::uint64_t non_public_new_chunks = 0;
  std::uint64_t freed_chunks = 0;
};

ThinDelta compute_thin_delta(const ThinMetadataReader& before,
                             const ThinMetadataReader& after);

/// Attack B — non-public growth (defeats MobiPluto): in a thin-provisioned
/// PDE *without* dummy writes, every fresh non-public chunk between
/// snapshots is unaccountable.
AttackReport nonpublic_growth_attack(const ThinMetadataReader& before,
                                     const ThinMetadataReader& after);

/// Attack C — dummy-budget analysis (the strongest paper-faithful attack on
/// MobiCeal): the trigger probability is bounded by 1/2 and burst sizes are
/// Exp(lambda), both public design constants, so at most about
///     budget = public_new * (1/2) * E[m] + z * sigma
/// dummy chunks are plausible. Suspicion iff non-public growth exceeds it.
AttackReport dummy_budget_attack(const ThinMetadataReader& before,
                                 const ThinMetadataReader& after,
                                 double lambda, double z = 3.0);

/// Attack D — mean-rate threshold (an empirical distinguisher stronger than
/// the paper's formal adversary): guesses hidden data iff non-public growth
/// exceeds the *expected* (not maximal) dummy rate. Reported alongside the
/// others to quantify the real-world margin; see docs/ADVERSARY.md, Game 1.
AttackReport mean_rate_attack(const ThinMetadataReader& before,
                              const ThinMetadataReader& after, double lambda,
                              std::uint32_t x);

/// Attack E — layout/locality analysis on sequential allocators
/// (Sec. IV-A, question 3): with sequential allocation, non-public chunks
/// wedged between consecutive public chunks are directly visible. Returns
/// the count of such wedged chunks as the statistic.
AttackReport sequential_layout_attack(const ThinMetadataReader& meta);

}  // namespace mobiceal::adversary
