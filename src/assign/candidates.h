#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "assign/candidate_index.h"
#include "assign/types.h"
#include "common/no_init.h"

namespace tamp::assign {

/// The Theorem-2 view of one (task, worker) pair — which predicted points
/// certify an expected completion probability of MR, and the fallback
/// stage-3 feasibility — as one row of a batch candidate graph.
struct TaskCandidate {
  int worker = -1;  // Batch index into the workers vector.
  /// |B| (Alg. 4 lines 4-7): the predicted points passing the Theorem-2
  /// test dis + a <= min(d/2, d_t). Only its size and minimum are kept.
  int b_count = 0;
  double min_b = 0.0;  // min B; +inf when B is empty.
  /// dis^min of stage 3: the minimum distance from any predicted point or
  /// the current location to the task.
  double min_dis = 0.0;
  /// Stage-3 feasibility: dis^min <= min(d/2, d_t).
  bool stage3_feasible = false;
};

/// EvaluateCandidate's result: a TaskCandidate whose `worker` is unset.
using CandidateInfo = TaskCandidate;

/// Evaluates the Theorem-2 candidate test for one pair at time `now_min`.
/// d_t = speed * (tau.t - now) is the reachable radius before the deadline
/// (Lemma 2); d/2 bounds the detour (Lemma 1); `match_radius_km` is a.
/// Allocates nothing.
CandidateInfo EvaluateCandidate(const SpatialTask& task,
                                const CandidateWorker& worker,
                                double match_radius_km, double now_min);

/// One batch's candidate graph, the only candidate representation the
/// assigners use: the rows of task t are rows[offsets[t]] up to
/// rows[offsets[t + 1]], in ascending worker order, one per pair whose
/// EvaluateCandidate outcome matters. With a >= 0 that is exactly the
/// stage-3-feasible pairs: |B| > 0 implies dis^min <= bound - a <= bound.
struct CandidateGraph {
  std::vector<uint32_t> offsets;  // num_tasks() + 1 entries.
  /// Filled by the generation passes on the pool threads (NoInitVector:
  /// no serial zeroing first).
  NoInitVector<TaskCandidate> rows;

  size_t num_tasks() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  std::span<const TaskCandidate> RowsOf(size_t task) const {
    return {rows.data() + offsets[task], rows.data() + offsets[task + 1]};
  }
  /// The row of (task, worker), or nullptr when the pair has none.
  const TaskCandidate* Find(size_t task, int worker) const;
};

/// Work accounting for one candidate build (also mirrored into the obs
/// registry as assign.candidate_evals / assign.candidates_pruned).
/// evaluated + pruned always equals the dense T x W pair count of the
/// call(s) accumulated.
struct CandidateGenStats {
  int64_t evaluated = 0;  // EvaluateCandidate invocations.
  int64_t pruned = 0;     // Dense pairs skipped via the spatial index.
};

/// Dense (task, worker) pairs below which GenerateCandidates runs both
/// passes inline. bench_micro_parallel puts the crossover where a
/// 4-thread fan-out over tasks starts to beat the serial loop at 4,096
/// to 8,192 pairs, and no benchmark workload makes a call in between
/// (DESIGN.md §4d).
inline constexpr int64_t kMinParallelCandidatePairs = 4096;

/// Builds the batch candidate graph in two passes. Pass 1 queries `index`
/// for every task, keeps the hits and then destroys the index, so the
/// rows never share memory with it; pass 2 evaluates each task's hits
/// straight into its slice of the row array, presized by its hit count.
/// Only workers surviving the Theorem-2 radius prune are evaluated. With
/// an empty `index` every T x W pair is evaluated: that dense sweep is the
/// test oracle, not a run mode. Both produce the identical graph — the
/// prune only skips pairs whose evaluation is provably empty/infeasible
/// (see CandidateIndex). `match_radius_km` must be >= 0 (checked).
///
/// Both passes fan out over chunks of tasks on the deterministic parallel
/// runtime with slot-indexed writes, so the graph is bit-identical at any
/// thread count. Batches of fewer than kMinParallelCandidatePairs dense
/// pairs run the same bodies inline on the caller instead. Records one
/// assign.index_query_s sample per call (the query pass).
CandidateGraph GenerateCandidates(const std::vector<SpatialTask>& tasks,
                                  const std::vector<CandidateWorker>& workers,
                                  double match_radius_km, double now_min,
                                  std::optional<CandidateIndex>& index,
                                  CandidateGenStats* stats = nullptr);

/// The same rows as one vector per task, over a caller-owned `index`
/// (nullptr = dense). An adapter for bench/e2e's layer probe, which times
/// generation apart from the solve; no assigner calls it.
std::vector<std::vector<TaskCandidate>> GenerateCandidates(
    const std::vector<SpatialTask>& tasks,
    const std::vector<CandidateWorker>& workers, double match_radius_km,
    double now_min, const CandidateIndex* index,
    CandidateGenStats* stats = nullptr);

}  // namespace tamp::assign
