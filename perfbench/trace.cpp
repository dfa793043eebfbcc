#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

struct OpenSpan {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  const char* name = "";
  double start = 0.0;
  std::uint64_t interval = 0;
  std::uint32_t owner = 0;
};

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<OpenSpan> open;
};

// Buffers outlive their threads (pool workers are never joined), so the
// registry owns them; a thread only touches its own.
struct BufferRegistry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;  // guarded by mutex
};

BufferRegistry& registry() {
  static BufferRegistry r;
  return r;
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    BufferRegistry& r = registry();
    const std::scoped_lock lock(r.mutex);
    r.buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = r.buffers.back().get();
    buffer->thread = static_cast<std::uint32_t>(r.buffers.size() - 1);
  }
  return *buffer;
}

}  // namespace

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::set_interval(std::uint64_t interval, std::uint64_t ambient_parent) {
  interval_.store(interval, std::memory_order_relaxed);
  ambient_parent_.store(ambient_parent, std::memory_order_relaxed);
}

std::uint64_t Tracer::open(const char* name, std::uint32_t owner) {
  ThreadBuffer& buffer = local_buffer();
  OpenSpan span;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent = buffer.open.empty()
                    ? ambient_parent_.load(std::memory_order_relaxed)
                    : buffer.open.back().id;
  span.name = name;
  span.interval = interval_.load(std::memory_order_relaxed);
  span.owner = owner;
  span.start = wall_s();
  buffer.open.push_back(span);
  return span.id;
}

void Tracer::close() {
  const double end = wall_s();
  ThreadBuffer& buffer = local_buffer();
  const OpenSpan span = buffer.open.back();
  buffer.open.pop_back();
  buffer.spans.push_back(Span{span.id, span.parent, span.name, span.start, end,
                              span.interval, buffer.thread, span.owner});
}

void Tracer::record(const char* name, double start, double end,
                    std::uint32_t owner) {
  ThreadBuffer& buffer = local_buffer();
  const std::uint64_t parent =
      buffer.open.empty() ? ambient_parent_.load(std::memory_order_relaxed)
                          : buffer.open.back().id;
  buffer.spans.push_back(Span{next_id_.fetch_add(1, std::memory_order_relaxed),
                              parent, name, start, end,
                              interval_.load(std::memory_order_relaxed),
                              buffer.thread, owner});
}

std::vector<Span> Tracer::collect() {
  BufferRegistry& r = registry();
  const std::scoped_lock lock(r.mutex);
  std::vector<Span> all;
  for (const std::unique_ptr<ThreadBuffer>& buffer : r.buffers) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    index.emplace(spans[i].id, i);
  }
  // Children's extents clipped to their parent, grouped by parent.
  std::vector<std::vector<std::pair<double, double>>> covered(spans.size());
  for (const Span& child : spans) {
    const auto it = index.find(child.parent);
    if (it == index.end()) {
      continue;
    }
    const Span& parent = spans[it->second];
    const double start = std::max(child.start, parent.start);
    const double end = std::min(child.end, parent.end);
    if (end > start) {
      covered[it->second].emplace_back(start, end);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<double, double>>& parts = covered[i];
    std::sort(parts.begin(), parts.end());
    double union_s = 0.0;
    double reach = spans[i].start;
    for (const auto& [start, end] : parts) {
      const double from = std::max(start, reach);
      if (end > from) {
        union_s += end - from;
        reach = end;
      }
    }
    self[i] = spans[i].duration() - union_s;
  }
  return self;
}

}  // namespace perfbench
