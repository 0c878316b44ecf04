#include "api/stack_config.hpp"

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <string>

namespace mobiceal::api {

namespace {

/// Strict non-negative integer parse: unparseable or negative input (e.g.
/// MOBICEAL_CACHE_WRITEBACK=true) is rejected rather than read as 0, so a
/// typo can never silently invert a knob.
bool parse_knob_value(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || v < 0) return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

/// One registered knob: command-line flag, environment variable, and the
/// target field (as an offset into StackConfig — standard layout, so every
/// consumer shares this one table). `kU32MinOne` clamps 0 to 1 (counts
/// that cannot be zero); `kU32KeepZero` ignores an explicit 0 (sizes where
/// 0 is meaningless).
struct Knob {
  const char* flag;
  const char* env;
  enum Kind : std::uint8_t { kU64, kU32, kU32MinOne, kU32KeepZero, kBool };
  Kind kind;
  std::size_t offset;
};

constexpr Knob kKnobs[] = {
    {"--queue-depth", "MOBICEAL_QUEUE_DEPTH", Knob::kU32MinOne,
     offsetof(StackConfig, queue_depth)},
    {"--cache-blocks", "MOBICEAL_CACHE_BLOCKS", Knob::kU64,
     offsetof(StackConfig, cache_blocks)},
    {"--cache-writeback", "MOBICEAL_CACHE_WRITEBACK", Knob::kBool,
     offsetof(StackConfig, cache_writeback)},
    {"--stripes", "MOBICEAL_STRIPES", Knob::kU32MinOne,
     offsetof(StackConfig, stripe_count)},
    {"--stripe-chunk", "MOBICEAL_STRIPE_CHUNK", Knob::kU32KeepZero,
     offsetof(StackConfig, stripe_chunk_blocks)},
    {"--crypto-lanes", "MOBICEAL_CRYPTO_LANES", Knob::kU32MinOne,
     offsetof(StackConfig, crypto_lanes)},
    {"--clock-shards", "MOBICEAL_CLOCK_SHARDS", Knob::kU32MinOne,
     offsetof(StackConfig, clock_shards)},
    {"--alloc-shards", "MOBICEAL_ALLOC_SHARDS", Knob::kU32MinOne,
     offsetof(StackConfig, alloc_shards)},
    {"--ftl", "MOBICEAL_FTL", Knob::kU32,
     offsetof(StackConfig, ftl_mode)},
    {"--ftl-over-provision", "MOBICEAL_FTL_OVER_PROVISION", Knob::kU32,
     offsetof(StackConfig, ftl_over_provision_pct)},
    {"--ftl-pages-per-block", "MOBICEAL_FTL_PAGES_PER_BLOCK", Knob::kU32MinOne,
     offsetof(StackConfig, ftl_pages_per_block)},
    {"--flusher", "MOBICEAL_FLUSHER", Knob::kBool,
     offsetof(StackConfig, flusher) + offsetof(cache::FlusherPolicy,
                                               enabled)},
    {"--flusher-dirty-pct", "MOBICEAL_FLUSHER_DIRTY_PCT", Knob::kU32,
     offsetof(StackConfig, flusher) + offsetof(cache::FlusherPolicy,
                                               dirty_ratio_pct)},
    {"--flusher-deadline-ns", "MOBICEAL_FLUSHER_DEADLINE_NS", Knob::kU64,
     offsetof(StackConfig, flusher) + offsetof(cache::FlusherPolicy,
                                               deadline_ns)},
};

void assign(StackConfig& c, const Knob& k, std::uint64_t v) {
  void* field = reinterpret_cast<char*>(&c) + k.offset;
  switch (k.kind) {
    case Knob::kU64:
      *static_cast<std::uint64_t*>(field) = v;
      return;
    case Knob::kU32:
      *static_cast<std::uint32_t*>(field) = static_cast<std::uint32_t>(v);
      return;
    case Knob::kU32MinOne:
      *static_cast<std::uint32_t*>(field) =
          v == 0 ? 1 : static_cast<std::uint32_t>(v);
      return;
    case Knob::kU32KeepZero:
      if (v != 0) {
        *static_cast<std::uint32_t*>(field) = static_cast<std::uint32_t>(v);
      }
      return;
    case Knob::kBool:
      *static_cast<bool*>(field) = v != 0;
      return;
  }
}

}  // namespace

void StackConfig::apply_knobs(int argc, char** argv) {
  for (const Knob& k : kKnobs) {
    const std::string name(k.flag);
    const std::string prefixed = name + "=";
    std::uint64_t v = 0;
    bool found = false;
    for (int i = 1; i < argc && !found; ++i) {
      const std::string arg = argv[i];
      if (arg == name && i + 1 < argc && parse_knob_value(argv[i + 1], &v)) {
        found = true;
      } else if (arg.rfind(prefixed, 0) == 0 &&
                 parse_knob_value(arg.c_str() + prefixed.size(), &v)) {
        found = true;
      }
    }
    if (!found) {
      // NOLINTNEXTLINE(concurrency-mt-unsafe): setup, before any threads
      if (const char* e = std::getenv(k.env)) {
        found = parse_knob_value(e, &v);
      }
    }
    if (found) assign(*this, k, v);
  }
}

bool StackConfig::is_knob_flag(const char* arg) {
  for (const Knob& k : kKnobs) {
    const std::size_t n = std::strlen(k.flag);
    if (std::strncmp(arg, k.flag, n) != 0) continue;
    if (arg[n] == '\0' || arg[n] == '=') return true;
  }
  return false;
}

}  // namespace mobiceal::api
