#include "geo/trajectory.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace tamp::geo {

Trajectory::Trajectory(std::vector<TimedPoint> points)
    : points_(std::move(points)) {
  for (size_t i = 1; i < points_.size(); ++i) {
    TAMP_CHECK_MSG(points_[i].time_min >= points_[i - 1].time_min,
                   "trajectory timestamps must be non-decreasing");
  }
}

void Trajectory::Append(const TimedPoint& p) {
  if (!points_.empty()) {
    TAMP_CHECK_MSG(p.time_min >= points_.back().time_min,
                   "trajectory timestamps must be non-decreasing");
  }
  points_.push_back(p);
}

double Trajectory::start_time() const {
  TAMP_CHECK(!points_.empty());
  return points_.front().time_min;
}

double Trajectory::end_time() const {
  TAMP_CHECK(!points_.empty());
  return points_.back().time_min;
}

double Trajectory::PathLength() const {
  double total = 0.0;
  for (size_t i = 1; i < points_.size(); ++i) {
    total += Distance(points_[i - 1].loc, points_[i].loc);
  }
  return total;
}

Point Trajectory::PositionAt(double time_min) const {
  TAMP_CHECK(!points_.empty());
  if (time_min <= points_.front().time_min) return points_.front().loc;
  if (time_min >= points_.back().time_min) return points_.back().loc;
  // Binary search for the segment containing time_min.
  size_t lo = 0;
  size_t hi = points_.size() - 1;
  while (hi - lo > 1) {
    size_t mid = (lo + hi) / 2;
    if (points_[mid].time_min <= time_min) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const TimedPoint& a = points_[lo];
  const TimedPoint& b = points_[hi];
  double span = b.time_min - a.time_min;
  if (span <= 0.0) return a.loc;
  double frac = (time_min - a.time_min) / span;
  return a.loc + (b.loc - a.loc) * frac;
}

Trajectory Trajectory::Slice(double t_begin, double t_end) const {
  std::vector<TimedPoint> out;
  for (const auto& p : points_) {
    if (p.time_min >= t_begin && p.time_min <= t_end) out.push_back(p);
  }
  return Trajectory(std::move(out));
}

std::vector<Point> Trajectory::Locations() const {
  std::vector<Point> out;
  out.reserve(points_.size());
  for (const auto& p : points_) out.push_back(p.loc);
  return out;
}

double Trajectory::MinDistanceTo(const Point& p) const {
  TAMP_CHECK(!points_.empty());
  double best = std::numeric_limits<double>::infinity();
  for (const auto& tp : points_) {
    best = std::min(best, Distance(tp.loc, p));
  }
  return best;
}

std::optional<DetourPlan> PlanTaskVisit(const Trajectory& routine,
                                        const Point& task_loc,
                                        double speed_kmpm,
                                        double deadline_min) {
  if (routine.empty() || speed_kmpm <= 0.0) return std::nullopt;
  std::optional<DetourPlan> best;
  auto consider = [&](double detour, double arrival, size_t seg) {
    if (arrival > deadline_min) return;
    if (!best.has_value() || detour < best->detour_km) {
      best = DetourPlan{detour, arrival, seg};
    }
  };
  const auto& pts = routine.points();
  for (size_t i = 0; i + 1 < pts.size(); ++i) {
    double to_task = Distance(pts[i].loc, task_loc);
    double onward = Distance(task_loc, pts[i + 1].loc);
    double direct = Distance(pts[i].loc, pts[i + 1].loc);
    double detour = to_task + onward - direct;
    double arrival = pts[i].time_min + to_task / speed_kmpm;
    consider(detour, arrival, i);
  }
  // Out-and-back from the final routine point: the worker finishes the
  // routine, visits the task, and returns, costing twice the leg.
  {
    const TimedPoint& last = pts.back();
    double to_task = Distance(last.loc, task_loc);
    consider(2.0 * to_task, last.time_min + to_task / speed_kmpm,
             pts.size() - 1);
  }
  return best;
}

}  // namespace tamp::geo
