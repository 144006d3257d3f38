#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "obs/alloc_track.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t SpanRecorder::name_id(const std::string& name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) return static_cast<std::uint32_t>(it - names_.begin());
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void SpanRecorder::begin(std::uint32_t name) {
  if (spans_.size() == spans_.capacity()) grew_ = true;
  spans_.push_back(Span{name, open_, 0, 0, 0, 0});
  open_ = static_cast<std::int32_t>(spans_.size() - 1);
  Span& s = spans_.back();
  s.allocs = scion::obs::thread_allocs();
  s.alloc_bytes = scion::obs::thread_alloc_bytes();
  s.start_ns = now_ns();
}

void SpanRecorder::end() {
  const std::int64_t t = now_ns();
  const std::uint64_t allocs = scion::obs::thread_allocs();
  const std::uint64_t bytes = scion::obs::thread_alloc_bytes();
  Span& s = spans_[static_cast<std::size_t>(open_)];
  s.end_ns = t;
  s.allocs = allocs - s.allocs;
  s.alloc_bytes = bytes - s.alloc_bytes;
  open_ = s.parent;
}

std::vector<std::int64_t> SpanRecorder::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].duration_ns();
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.duration_ns();
  }
  return self;
}

bool SpanRecorder::write(const std::string& path) const {
  std::ofstream out{path};
  out << "names";
  for (const std::string& n : names_) out << ' ' << n;
  out << '\n';
  for (const Span& s : spans_) {
    out << s.name << ' ' << s.parent << ' ' << s.start_ns << ' ' << s.end_ns
        << ' ' << s.allocs << ' ' << s.alloc_bytes << '\n';
  }
  return static_cast<bool>(out);
}

SpanSummary summarize(const SpanRecorder& r, std::uint32_t name,
                      const std::vector<std::int64_t>& self) {
  SpanSummary out;
  const std::vector<Span>& spans = r.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.name != name) continue;
    ++out.calls;
    out.self_ns += self[i];
    out.allocs += s.allocs;
    out.alloc_bytes += s.alloc_bytes;
    out.durations.push_back(s.duration_ns());
  }
  std::sort(out.durations.begin(), out.durations.end());
  return out;
}

std::string check_nesting(const SpanRecorder& r) {
  const std::vector<Span>& spans = r.spans();
  const std::vector<std::int64_t> self = r.self_ns();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns < s.start_ns) return "span " + std::to_string(i) + " ends before it starts";
    if (self[i] < 0) return "children of span " + std::to_string(i) + " outlast it";
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
      return "span " + std::to_string(i) + " escapes its parent";
    }
  }
  return {};
}

}  // namespace perfbench
