#pragma once

#include <functional>
#include <vector>

#include "geo/grid.h"
#include "geo/point.h"
#include "geo/spatial_index.h"

namespace tamp::core {

/// Hyper-parameters of the task-assignment-oriented loss weight (Eq. 7).
struct TaLossParams {
  /// kappa in (0,1): strength of the historical-task-density term.
  double kappa = 0.5;
  /// delta > 0: base weight so sparse regions still contribute.
  double delta = 0.5;
  /// d^q: radius (km) of the disk whose historical-task count drives the
  /// weight at a trajectory point.
  double dq_km = 1.0;
  /// Stability cap on f_w. When the historical tasks concentrate on a few
  /// tight hotspots (the Foursquare-like workload), the raw Eq. 7 ratio
  /// count/rho^t spikes by orders of magnitude and destabilizes training;
  /// capping preserves the ordering of weights while bounding the
  /// effective learning-rate amplification. Set to +inf to disable.
  double max_weight = 4.0;
};

/// The weighted function f_w of Eq. 7:
///   f_w(l) = kappa * |{tau : dis(tau, l) < d^q}| / rho^t + delta,
/// where rho^t is the expected number of historical tasks in a disk of
/// radius d^q (the unit-space normalizer). Trajectory points in task-dense
/// areas get larger loss weights, steering the prediction model toward
/// accuracy exactly where assignments happen (Challenge II). Like the
/// paper (Section III-C), the weight ignores when the tasks were posted.
class TaskOrientedWeighter {
 public:
  TaskOrientedWeighter(const geo::GridSpec& grid,
                       const std::vector<geo::Point>& historical_tasks,
                       const TaLossParams& params);

  /// f_w at a map location (km coordinates).
  double Weight(const geo::Point& location_km) const;

  /// The rho^t normalizer in use.
  double rho() const { return rho_; }

  /// Adapter for MetaTrainConfig::weight_fn. The returned callable holds a
  /// pointer to this weighter, which must outlive it.
  std::function<double(const geo::Point&)> AsFunction() const;

 private:
  geo::SpatialCountIndex index_;
  TaLossParams params_;
  double rho_;
};

}  // namespace tamp::core
