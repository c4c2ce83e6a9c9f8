#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

/// Deterministic data-parallel runtime for the offline stack.
///
/// One lazily-started fixed thread pool serves every ParallelFor /
/// ParallelMap call in the process. The pool size comes from the
/// TAMP_THREADS environment variable (or SetParallelThreadCount), default
/// std::thread::hardware_concurrency().
///
/// Determinism contract (see DESIGN.md "Parallel execution"):
///   - Worker lambdas must be pure per index: fn(i) may read shared state
///     but may only write state owned by index i. In particular they must
///     never draw from a shared Rng; sample on the caller thread before the
///     fan-out, or derive a seeded sub-Rng per index.
///   - Results are combined in index order (ParallelMap places fn(i) at
///     out[i]; reductions walk the parts serially 0..n-1), so parallel
///     output is bit-identical to serial regardless of thread count or
///     scheduling.
///   - With a 1-thread configuration the runtime takes the exact serial
///     path: fn runs inline on the calling thread, no pool is started.
///
/// Exceptions thrown by fn propagate to the ParallelFor caller (the first
/// one thrown, by completion order; remaining indices are skipped). Nested
/// ParallelFor calls from inside a worker run serially inline, so the
/// runtime never deadlocks on its own pool.
namespace tamp {

/// Largest accepted thread count. A region grows the pool to
/// min(count, n) - 1 workers, so an unbounded count would let one large
/// region (--threads=100000 over a 12.5k-task candidate pass) try to start
/// thousands of threads. 256 covers the core counts of current many-core
/// hosts while a full pool of 255 parked workers stays cheap.
inline constexpr int kMaxParallelThreads = 256;

/// Number of threads parallel regions use: the explicit override if set,
/// else TAMP_THREADS (when it is an integer in [1, kMaxParallelThreads]),
/// else hardware_concurrency capped at kMaxParallelThreads (>= 1 always).
int ParallelThreadCount();

/// Overrides the thread count (tests, embedding applications). `threads`
/// must be in [1, kMaxParallelThreads] (checked); pass 0 to drop the
/// override and re-read TAMP_THREADS.
/// Already-spawned pool workers are kept (the pool never shrinks); a lower
/// count only limits how many participate in subsequent regions: the
/// caller plus at most `threads - 1` pool workers.
void SetParallelThreadCount(int threads);

/// True while the calling thread is executing inside a parallel region
/// (used by the runtime to serialize nested calls; exposed for tests).
bool InParallelRegion();

/// Runs fn(0), ..., fn(n-1), distributing indices over the pool. Blocks
/// until all indices finished. See the determinism contract above.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

/// ParallelFor when `fan_out`, else the same loop inline on the caller:
/// how a work-gated call site skips a pool region its work would not pay
/// back (DESIGN.md §4d). The result is the same either way. The inline
/// loop calls `fn` directly: it reads no thread count and builds no
/// std::function, so a small gated call allocates nothing.
template <typename Fn>
void ParallelForIf(bool fan_out, size_t n, Fn&& fn) {
  if (!fan_out) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ParallelFor(n, fn);
}

/// Maps fn over [0, n) into a vector with out[i] = fn(i). T must be
/// default-constructible and movable.
template <typename T, typename Fn>
std::vector<T> ParallelMap(size_t n, Fn&& fn) {
  std::vector<T> out(n);
  ParallelFor(n, [&](size_t i) { out[i] = fn(i); });
  return out;
}

/// Ordered parallel reduction: computes parts[i] = map_fn(i) in parallel,
/// then folds acc = reduce_fn(acc, parts[i]) serially in index order, so
/// the result is bit-identical to the serial loop
///   for (i = 0; i < n; ++i) acc = reduce_fn(acc, map_fn(i));
/// for any thread count (floating-point accumulation order is fixed).
template <typename Acc, typename Part, typename MapFn, typename ReduceFn>
Acc ParallelOrderedReduce(size_t n, Acc init, MapFn&& map_fn,
                          ReduceFn&& reduce_fn) {
  std::vector<Part> parts = ParallelMap<Part>(n, std::forward<MapFn>(map_fn));
  Acc acc = std::move(init);
  for (size_t i = 0; i < n; ++i) {
    acc = reduce_fn(std::move(acc), std::move(parts[i]));
  }
  return acc;
}

}  // namespace tamp
