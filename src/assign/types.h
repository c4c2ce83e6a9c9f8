#pragma once

#include <vector>

#include "geo/point.h"
#include "geo/trajectory.h"

namespace tamp::assign {

/// A spatial task tau = (l, t) (Def. 1) as the assignment algorithms see
/// it inside one batch.
struct SpatialTask {
  int id = -1;
  geo::Point location;           // tau.l
  double release_time_min = 0.0; // When the requester posted it.
  double deadline_min = 0.0;     // tau.t
};

/// A worker candidate within one assignment batch: what the platform knows
/// (current location, predicted routine, detour budget, the prediction
/// model's matching rate) — never the real trajectory, which only the
/// acceptance simulation and the UB oracle may consult.
struct CandidateWorker {
  int id = -1;
  /// Predicted future routine w.r-hat: timed locations over the horizon.
  /// Only these points enter Theorem 2's B set; the (exactly known)
  /// current location additionally feeds the stage-3 distance test.
  std::vector<geo::TimedPoint> predicted;
  geo::Point current_location;
  double detour_budget_km = 4.0;  // w.d
  double speed_kmpm = 0.5;        // km per minute.
  double matching_rate = 0.0;     // MR(r, r-hat) of this worker's model.
};

/// One proposed (task, worker) pair of an assignment plan M.
struct AssignmentPair {
  int task_index = -1;    // Index into the batch's task vector.
  int worker_index = -1;  // Index into the batch's worker vector.
  /// The algorithm's own estimate of the detour (km), from predictions.
  double expected_detour_km = 0.0;
};

/// An assignment plan M (Def. 4): disjoint (task, worker) pairs.
struct AssignmentPlan {
  std::vector<AssignmentPair> pairs;
};

}  // namespace tamp::assign
