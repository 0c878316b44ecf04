#include "adversary/attacks.hpp"

#include <algorithm>
#include <cmath>
#include <set>

namespace mobiceal::adversary {

namespace {
std::set<std::uint64_t> mapped_set(const ThinMetadataReader& meta,
                                   bool public_only) {
  std::set<std::uint64_t> out;
  const auto& vols = meta.volumes();
  for (std::uint32_t v = 0; v < vols.size(); ++v) {
    if (!vols[v].active) continue;
    if (public_only != (v == 0)) continue;
    for (std::uint64_t p : vols[v].map) {
      if (p != thin::kUnmapped) out.insert(p);
    }
  }
  return out;
}

std::uint64_t count_new(const std::set<std::uint64_t>& before,
                        const std::set<std::uint64_t>& after) {
  std::uint64_t n = 0;
  for (std::uint64_t c : after) {
    if (!before.count(c)) ++n;
  }
  return n;
}
}  // namespace

ThinDelta compute_thin_delta(const ThinMetadataReader& before,
                             const ThinMetadataReader& after) {
  const auto pub0 = mapped_set(before, true);
  const auto pub1 = mapped_set(after, true);
  const auto np0 = mapped_set(before, false);
  const auto np1 = mapped_set(after, false);
  ThinDelta d;
  d.public_new_chunks = count_new(pub0, pub1);
  d.non_public_new_chunks = count_new(np0, np1);
  d.freed_chunks = count_new(np1, np0) + count_new(pub1, pub0);
  return d;
}

AttackReport nonpublic_growth_attack(const ThinMetadataReader& before,
                                     const ThinMetadataReader& after) {
  const ThinDelta d = compute_thin_delta(before, after);
  AttackReport r;
  r.statistic = static_cast<double>(d.non_public_new_chunks);
  r.threshold = 0.0;
  r.suspects_hidden_data = d.non_public_new_chunks > 0;
  r.reasoning = std::to_string(d.non_public_new_chunks) +
                " fresh non-public chunk(s) with no public-volume "
                "explanation (fatal for schemes without dummy writes)";
  return r;
}

AttackReport dummy_budget_attack(const ThinMetadataReader& before,
                                 const ThinMetadataReader& after,
                                 double lambda, double z) {
  const ThinDelta d = compute_thin_delta(before, after);
  const double n = static_cast<double>(d.public_new_chunks);
  // Trigger probability is bounded by 1/2 (rand in [1,2x] vs stored mod x);
  // burst mean is 1/lambda. Variance combines the Bernoulli trigger, the
  // exponential burst, and the drift of the (hidden) trigger state.
  const double mean_cap = n * 0.5 / lambda;
  const double per_alloc_var = 0.5 * (2.0 / (lambda * lambda));
  const double drift_var = n * n * (1.0 / 48.0) / (lambda * lambda);
  const double sigma = std::sqrt(n * per_alloc_var + drift_var);
  AttackReport r;
  r.statistic = static_cast<double>(d.non_public_new_chunks);
  r.threshold = mean_cap + z * sigma;
  r.suspects_hidden_data = r.statistic > r.threshold;
  r.reasoning =
      "non-public growth " + std::to_string(d.non_public_new_chunks) +
      " vs maximal dummy budget " + std::to_string(r.threshold) + " for " +
      std::to_string(d.public_new_chunks) + " public allocations";
  return r;
}

AttackReport mean_rate_attack(const ThinMetadataReader& before,
                              const ThinMetadataReader& after, double lambda,
                              std::uint32_t x) {
  const ThinDelta d = compute_thin_delta(before, after);
  const double n = static_cast<double>(d.public_new_chunks);
  // Expected trigger probability: E[stored_rand mod x] / 2x ~ (x-1)/(4x).
  const double p = (static_cast<double>(x) - 1.0) /
                   (4.0 * static_cast<double>(x));
  const double expected = n * p / lambda;
  AttackReport r;
  r.statistic = static_cast<double>(d.non_public_new_chunks);
  r.threshold = expected;
  r.suspects_hidden_data = r.statistic > r.threshold;
  r.reasoning = "non-public growth " +
                std::to_string(d.non_public_new_chunks) +
                " vs expected dummy rate " + std::to_string(expected);
  return r;
}

AttackReport sequential_layout_attack(const ThinMetadataReader& meta) {
  // Reconstruct the public volume's physical chunks; count non-public
  // allocated chunks lying strictly inside the public span. Under
  // sequential allocation, interleaved foreign chunks mean some other
  // volume allocated between public writes. Under random allocation the
  // statistic is uninformative: interleaving is the expected layout.
  const auto pub = mapped_set(meta, true);
  AttackReport r;
  if (pub.empty()) {
    r.reasoning = "no public chunks to anchor the layout analysis";
    return r;
  }
  if (meta.policy() == thin::AllocPolicy::kRandom) {
    r.suspects_hidden_data = false;
    r.reasoning =
        "pool uses random allocation: interleaved chunks are the expected "
        "layout and carry no signal";
    return r;
  }
  const std::uint64_t lo = *pub.begin();
  const std::uint64_t hi = *pub.rbegin();
  std::uint64_t wedged = 0;
  for (std::uint64_t c : meta.allocated_chunks()) {
    if (c > lo && c < hi && !pub.count(c)) ++wedged;
  }
  r.statistic = static_cast<double>(wedged);
  r.threshold = 0.0;
  r.suspects_hidden_data = wedged > 0;
  r.reasoning = std::to_string(wedged) +
                " foreign chunk(s) interleaved inside the public volume's "
                "sequential allocation span";
  return r;
}

}  // namespace mobiceal::adversary
