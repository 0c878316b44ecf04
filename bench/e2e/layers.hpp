// Isolated layer probes: each times one layer's public functions on the
// host clock, over a MemBlockDevice (or nothing), at the request shape a
// workload gives that layer. They answer "what does this layer cost per
// unit of work" without the rest of the stack in the way.
#pragma once

#include <string>
#include <vector>

namespace mobiceal::e2e {

struct LayerMetric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// Runs every probe; each reports the median of a few trials. `smoke`
/// shrinks sizes and trials.
std::vector<LayerMetric> run_layer_probes(bool smoke);

}  // namespace mobiceal::e2e
