#pragma once

#include <optional>
#include <vector>

#include "geo/point.h"

namespace tamp::geo {

/// A routine r = {(l_1, t_1), ..., (l_n, t_n)} (Def. 2): a time-ordered
/// series of locations. Workers move along straight segments between
/// consecutive points.
class Trajectory {
 public:
  Trajectory() = default;
  explicit Trajectory(std::vector<TimedPoint> points);

  bool empty() const { return points_.empty(); }
  size_t size() const { return points_.size(); }
  const TimedPoint& operator[](size_t i) const { return points_[i]; }
  const std::vector<TimedPoint>& points() const { return points_; }

  /// Appends a point; its timestamp must not precede the last one.
  void Append(const TimedPoint& p);

  double start_time() const;
  double end_time() const;

  /// Total path length in km (sum of segment lengths).
  double PathLength() const;

  /// Position at an arbitrary time, linearly interpolated along segments.
  /// Times before the start / after the end clamp to the endpoints.
  /// Requires a non-empty trajectory.
  Point PositionAt(double time_min) const;

  /// The sub-trajectory with timestamps in [t_begin, t_end] (inclusive).
  Trajectory Slice(double t_begin, double t_end) const;

  /// The locations only (drops timestamps), e.g. as model targets.
  std::vector<Point> Locations() const;

  /// Minimum distance from any trajectory point to `p` (the dis^min of
  /// Alg. 4 stage 3). Requires a non-empty trajectory.
  double MinDistanceTo(const Point& p) const;

 private:
  std::vector<TimedPoint> points_;
};

/// Result of planning a task visit along a routine.
struct DetourPlan {
  /// Extra distance the worker travels to visit the task location:
  /// dis(l_i, tau) + dis(tau, l_{i+1}) - dis(l_i, l_{i+1}) for the best
  /// insertion segment (the quantity bounded by w.d in Lemma 1).
  double detour_km = 0.0;
  /// When the worker reaches the task location, assuming it departs l_i at
  /// t_i and travels at `speed` (km/min).
  double arrival_time_min = 0.0;
  /// Index i of the segment (l_i -> l_{i+1}) the visit is inserted into;
  /// size()-1 denotes an out-and-back from the final point.
  size_t segment_index = 0;
};

/// Finds the cheapest feasible insertion of a visit to `task_loc` into
/// `routine`, subject to arriving no later than `deadline_min` when moving
/// at `speed_kmpm` km/min. Considers every segment plus an out-and-back
/// from the final point. Returns nullopt when no insertion meets the
/// deadline or the routine is empty.
std::optional<DetourPlan> PlanTaskVisit(const Trajectory& routine,
                                        const Point& task_loc,
                                        double speed_kmpm,
                                        double deadline_min);

}  // namespace tamp::geo
