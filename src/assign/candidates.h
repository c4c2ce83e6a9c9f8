#pragma once

#include <cstdint>
#include <vector>

#include "assign/types.h"

namespace tamp::assign {

class CandidateIndex;

/// The Theorem-2 view of one (task, worker) pair — which predicted points
/// certify an expected completion probability of MR, and the fallback
/// stage-3 feasibility — as one row of a batch candidate table.
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

/// Work accounting for one candidate-table build (also mirrored into the
/// obs registry as assign.candidate_evals / assign.candidates_pruned).
/// evaluated + pruned always equals the dense T x W pair count of the
/// call(s) accumulated.
struct CandidateGenStats {
  int64_t evaluated = 0;  // EvaluateCandidate invocations.
  int64_t pruned = 0;     // Dense pairs skipped via the spatial index.
};

/// Dense (task, worker) pairs below which GenerateCandidates runs inline:
/// the crossover where a 4-thread fan-out over tasks starts to beat the
/// serial loop, measured by bench_micro_parallel (DESIGN.md §4d).
inline constexpr int64_t kMinParallelCandidatePairs = 4096;

/// Builds the batch candidate table: for every task, the ascending-worker
/// list of pairs whose EvaluateCandidate outcome matters (non-empty B or
/// stage-3 feasible). Every assigner calls it with a per-batch `index`, so
/// only workers surviving the Theorem-2 radius prune are evaluated. With
/// nullptr every T x W pair is evaluated: that dense sweep is the test
/// oracle, not a run mode. Both produce the identical table — the prune
/// only skips pairs whose evaluation is provably empty/infeasible (see
/// CandidateIndex).
///
/// Tasks fan out over the deterministic parallel runtime with slot-indexed
/// writes, so the table is bit-identical at any thread count. Batches of
/// fewer than kMinParallelCandidatePairs dense pairs run the same body
/// inline on the caller instead.
std::vector<std::vector<TaskCandidate>> GenerateCandidates(
    const std::vector<SpatialTask>& tasks,
    const std::vector<CandidateWorker>& workers, double match_radius_km,
    double now_min, const CandidateIndex* index,
    CandidateGenStats* stats = nullptr);

}  // namespace tamp::assign
