// Span recorder for the end-to-end benchmark.
//
// The benchmark opens a span around each of its own calls into a layer
// (SchemeRegistry::create, unlock, switch_volume, backing-store
// construction, every FileSystem call) plus one per workload phase. A span
// carries host wall time and the stack's virtual time, the span that
// enclosed it, and the id of the client request it served. Spans stay in
// memory; write_chrome_json() emits them once, at exit, as Chrome
// trace-event JSON that Perfetto and chrome://tracing open offline.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/sim_clock.hpp"

namespace mobiceal::e2e {

/// Host nanoseconds on the steady clock since the first call in the
/// process.
std::uint64_t host_now_ns();

struct Span {
  const char* name = "";  // static storage
  std::uint64_t host_begin_ns = 0, host_end_ns = 0;
  std::uint64_t virt_begin_ns = 0, virt_end_ns = 0;
  std::int64_t parent = -1;  // index of the enclosing span, -1 at the root
  std::uint64_t op = 0;      // client request id, 0 outside requests
};

/// Per-name aggregate. Self time is a span's duration minus the part of it
/// its child spans cover.
struct SpanTotals {
  std::uint64_t calls = 0;
  std::uint64_t host_ns = 0, virt_ns = 0;
  std::uint64_t self_host_ns = 0;
};

class Tracer {
 public:
  /// A disabled tracer records nothing; begin() then returns kNone.
  void set_enabled(bool on) { enabled_ = on; }

  /// Virtual time source for the spans that follow (null: virtual 0).
  void set_clock(const util::SimClock* clock) { clock_ = clock; }

  static constexpr std::size_t kNone = ~std::size_t{0};

  std::size_t begin(const char* name, std::uint64_t op = 0);
  void end(std::size_t id);

  std::map<std::string, SpanTotals> totals() const;

  /// Writes every span as a complete ("X") event on two tracks: host wall
  /// time (pid 1) and virtual time (pid 2). Returns false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  const util::SimClock* clock_ = nullptr;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, std::uint64_t op = 0)
      : tracer_(t), id_(t.begin(name, op)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::size_t id_;
};

}  // namespace mobiceal::e2e
