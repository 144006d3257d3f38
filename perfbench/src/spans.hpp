// In-memory span recorder for the traced benchmark run.
//
// A span is one call into a layer: its name, host start and end, the span
// that was open when it began (its parent) and the operator-new calls and
// bytes the calling thread made inside it (obs::thread_allocs deltas).
// Spans are appended to a pre-reserved vector, so recording allocates
// nothing once reserve() has sized it; they are written out at exit.
// Self time is a span's duration minus the durations of its direct children.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Host clock for every benchmark timing (steady, nanoseconds).
std::int64_t now_ns();

struct Span {
  std::uint32_t name{0};
  std::int32_t parent{-1};
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::uint64_t allocs{0};
  std::uint64_t alloc_bytes{0};

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class SpanRecorder {
 public:
  /// Registers a span name; returns its id.
  std::uint32_t name_id(const std::string& name);

  /// Sizes the store so that recording `n` spans allocates nothing.
  void reserve(std::size_t n) { spans_.reserve(n); }

  void begin(std::uint32_t name);
  void end();

  /// RAII form of begin()/end().
  class Scope {
   public:
    Scope(SpanRecorder& r, std::uint32_t name) : r_{r} { r_.begin(name); }
    ~Scope() { r_.end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& r_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  /// True when recording outgrew reserve(): the growth allocations then
  /// landed inside the open spans' alloc deltas.
  bool grew() const { return grew_; }

  /// Per-span self time (duration minus direct children), indexed like
  /// spans().
  std::vector<std::int64_t> self_ns() const;

  /// Writes the spans as text: a "names" header line, then one line per
  /// span "name parent start_ns end_ns allocs alloc_bytes". Returns false
  /// on I/O failure.
  bool write(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::int32_t open_{-1};
  bool grew_{false};
};

/// Aggregate of all spans with one name.
struct SpanSummary {
  std::uint64_t calls{0};
  std::int64_t self_ns{0};
  std::uint64_t allocs{0};
  std::uint64_t alloc_bytes{0};
  /// Span durations, sorted ascending.
  std::vector<std::int64_t> durations;
};

SpanSummary summarize(const SpanRecorder& r, std::uint32_t name,
                      const std::vector<std::int64_t>& self);

/// Checks that every span lies inside its parent and that no span's
/// children cover more than the span itself; returns a diagnostic, empty
/// when the spans nest.
std::string check_nesting(const SpanRecorder& r);

}  // namespace perfbench
