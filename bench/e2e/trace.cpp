#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace mobiceal::e2e {

std::uint64_t host_now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

std::size_t Tracer::begin(const char* name, std::uint64_t op) {
  if (!enabled_) return kNone;
  Span s;
  s.name = name;
  s.op = op;
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  s.virt_begin_ns = clock_ ? clock_->now() : 0;
  s.host_begin_ns = host_now_ns();
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::end(std::size_t id) {
  if (id == kNone) return;
  Span& s = spans_[id];
  s.host_end_ns = host_now_ns();
  s.virt_end_ns = clock_ ? clock_->now() : 0;
  // Spans close in LIFO order (ScopedSpan); pop through `id` regardless so
  // a span left open by an exception cannot adopt later siblings.
  while (!open_.empty()) {
    const std::size_t top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  // Children's host time per parent; children of one parent never overlap
  // (single-threaded client), so their sum is the covered part.
  std::vector<std::uint64_t> child_host(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_host[static_cast<std::size_t>(s.parent)] +=
          s.host_end_ns - s.host_begin_ns;
    }
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    SpanTotals& t = out[s.name];
    const std::uint64_t host = s.host_end_ns - s.host_begin_ns;
    ++t.calls;
    t.host_ns += host;
    t.virt_ns += s.virt_end_ns - s.virt_begin_ns;
    t.self_host_ns += host - std::min(host, child_host[i]);
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
               "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
               "\"args\":{\"name\":\"host wall time\"}},\n"
               "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\","
               "\"args\":{\"name\":\"virtual time\"}}");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"op\":%llu}}",
                 s.name, static_cast<double>(s.host_begin_ns) / 1e3,
                 static_cast<double>(s.host_end_ns - s.host_begin_ns) / 1e3,
                 i, static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":2,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"op\":%llu}}",
                 s.name, static_cast<double>(s.virt_begin_ns) / 1e3,
                 static_cast<double>(s.virt_end_ns - s.virt_begin_ns) / 1e3,
                 i, static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace mobiceal::e2e
