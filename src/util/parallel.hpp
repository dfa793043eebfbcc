// Shared thread pool and data-parallel loop for the numeric core.
//
// The per-interval DT pipeline (1D-CNN compression, k-means grouping,
// DDQN planning) is embarrassingly parallel over rows: output rows of a
// matmul, points of a clustering pass, windows of a feature batch. The
// pool hands each worker a contiguous, disjoint index block, so results
// are bit-identical for any thread count — each row is always reduced by
// exactly one thread, in the same order.
//
// Thread count resolution order:
//   1. explicit set_thread_count(n) (benches use this for scaling runs),
//   2. the DTMSV_THREADS environment variable,
//   3. std::thread::hardware_concurrency().
// A count of 1 (or a range below `grain`) runs inline with zero overhead.
#pragma once

#include <cstddef>
#include <functional>

namespace dtmsv::util {

/// Number of worker threads the pool will use (see resolution order above).
std::size_t thread_count();

/// Overrides the pool size; n == 0 restores the env/hardware default.
/// Takes effect on the next parallel_for call.
void set_thread_count(std::size_t n);

namespace detail {

/// True when a range of `span` indices runs inline on the caller (1-thread
/// pool, span below min_grain, or already inside a pool job).
bool runs_inline(std::size_t span, std::size_t min_grain);

/// Splits [begin, end) into one chunk per thread and runs them on the pool.
void run_pooled(std::size_t begin, std::size_t end,
                const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace detail

/// Runs fn(begin_i, end_i) over disjoint contiguous chunks covering
/// [begin, end). Chunk boundaries depend only on (begin, end, thread
/// count), never on scheduling, and a range shorter than min_grain (or a
/// 1-thread pool) executes fn(begin, end) inline on the caller's thread.
/// Reentrant: a parallel_for issued from inside a running job (e.g. a
/// matmul inside a fleet-level per-cell loop) executes inline on that
/// worker, so coarse outer parallelism wins and nesting cannot deadlock.
/// fn must not throw; exceptions escaping a worker terminate the process.
/// No call copies the closure to the heap: the inline path calls `fn`
/// directly and the pooled path wraps it by reference.
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, std::size_t min_grain,
                  Fn&& fn) {
  if (begin >= end) {
    return;
  }
  if (detail::runs_inline(end - begin, min_grain)) {
    fn(begin, end);
    return;
  }
  // A reference_wrapper fits std::function's inline storage.
  detail::run_pooled(begin, end,
                     std::function<void(std::size_t, std::size_t)>(std::ref(fn)));
}

}  // namespace dtmsv::util
