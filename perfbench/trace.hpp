// Span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code only: around the calls it
// makes into the library (one "interval" root span per reservation interval,
// ingest and churn calls) and inside the stage decorators it registers
// (decorators.hpp). Each span carries its name, start, end, parent, interval
// id, recording thread and owner (the pipeline instance — fleet shard — whose
// stage produced it).
//
// Recording never locks: every thread appends to its own buffer, and a
// thread with no open span of its own (a fleet worker running a shard's
// stages) parents its spans to the ambient root the driving thread set for
// the current interval. collect() gathers the buffers while no worker runs.
// The recorder only reads the clock; nothing it measures feeds back into
// the pipeline, so traced results stay bit-identical to untraced ones.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Seconds on std::chrono::steady_clock.
double wall_s();

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: root
  const char* name = "";     // string literal
  double start = 0.0;
  double end = 0.0;
  std::uint64_t interval = 0;
  std::uint32_t thread = 0;
  std::uint32_t owner = 0;

  double duration() const { return end - start; }
};

class Tracer {
 public:
  static Tracer& instance();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Interval id stamped on new spans, and the parent of spans opened on
  /// threads that have no open span of their own.
  void set_interval(std::uint64_t interval, std::uint64_t ambient_parent);

  /// Opens a span on the calling thread and returns its id. The parent is
  /// the thread's innermost open span, else the ambient parent.
  std::uint64_t open(const char* name, std::uint32_t owner = 0);
  /// Closes the calling thread's innermost open span.
  void close();
  /// Records an already finished span with the parent open() would pick.
  void record(const char* name, double start, double end, std::uint32_t owner = 0);

  /// Moves out every span recorded so far, from all threads. Call only while
  /// no other thread records.
  std::vector<Span> collect();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> interval_{0};
  std::atomic<std::uint64_t> ambient_parent_{0};
  std::atomic<std::uint64_t> next_id_{1};
};

/// Opens a span for the enclosing scope when tracing is enabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint32_t owner = 0) {
    Tracer& tracer = Tracer::instance();
    if (tracer.enabled()) {
      id_ = tracer.open(name, owner);
    }
  }
  ~ScopedSpan() {
    if (id_ != 0) {
      Tracer::instance().close();
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::uint64_t id_ = 0;
};

/// Self time of each span (same order as `spans`): its duration minus the
/// part of it that its children cover. Children are clipped to the parent
/// and overlapping children (concurrent fleet workers) count once.
std::vector<double> self_times(const std::vector<Span>& spans);

}  // namespace perfbench
