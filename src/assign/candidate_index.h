#pragma once

#include <vector>

#include "assign/types.h"
#include "geo/spatial_index.h"

namespace tamp::assign {

/// Per-batch spatial index over the platform-visible points of a worker
/// set: every predicted TimedPoint plus the reported current location,
/// labelled with the worker's batch index.
///
/// The point of this index is Theorem 2: a (task, worker) pair can only be
/// feasible — for any PPI stage, or for the KM/GGPSO baselines, which all
/// share the `dis^min <= min(d/2, d_t)` test — when some platform-visible
/// point of the worker lies within min(d/2, d_t) of the task. Querying the
/// closed ball of radius PruneRadius(task) therefore returns a superset of
/// the workers EvaluateCandidate could accept, and every pruned pair is
/// one whose CandidateInfo is guaranteed empty/infeasible. Assignment
/// plans computed from the pruned candidate set are bit-identical to the
/// dense T x W evaluation (asserted by tests/assign_candidate_index_test).
class CandidateIndex {
 public:
  explicit CandidateIndex(const std::vector<CandidateWorker>& workers);

  /// The Theorem-2 pruning radius for `task` at time `now_min`:
  ///   min(max_w d_w / 2, max_w speed_w * (deadline - now)) + a.
  /// Per-worker bounds min(d_w/2, speed_w * dt) never exceed this batch
  /// bound, so one query radius serves every worker. Negative (prune
  /// everything) when the task is expired.
  double PruneRadius(const SpatialTask& task, double match_radius_km,
                     double now_min) const;

  using QueryScratch = geo::SpatialLabelIndex::QueryScratch;

  /// Ascending, deduplicated batch indices of workers with at least one
  /// indexed point within the closed ball dis <= radius_km. Clears `out`.
  /// Pass a per-thread `scratch` on hot query loops: it moves label dedup
  /// off the sort and amortizes the stamp allocation across queries.
  void QueryWorkers(const geo::Point& center, double radius_km,
                    std::vector<int>& out,
                    QueryScratch* scratch = nullptr) const {
    index_.CollectLabelsWithin(center, radius_km, out, scratch);
  }

  size_t num_points() const { return index_.num_entries(); }
  size_t num_cells() const { return index_.num_cells(); }

 private:
  // Declared before index_: the member-initializer list sizes the index's
  // cells from the batch-max detour bound.
  double max_half_detour_km_ = 0.0;
  double max_speed_kmpm_ = 0.0;
  geo::SpatialLabelIndex index_;
};

}  // namespace tamp::assign
