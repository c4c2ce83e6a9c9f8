#include "assign/bounds.h"

#include <algorithm>

#include "common/check.h"
#include "matching/hungarian.h"

namespace tamp::assign {

AssignmentPlan UpperBoundAssign(const std::vector<SpatialTask>& tasks,
                                const std::vector<CandidateWorker>& workers,
                                const std::vector<geo::Trajectory>& real_routines,
                                double now_min, double weight_floor_km) {
  TAMP_CHECK(workers.size() == real_routines.size());
  AssignmentPlan plan;
  if (tasks.empty() || workers.empty()) return plan;
  (void)now_min;

  std::vector<matching::Edge> edges;
  std::vector<std::vector<double>> detours(
      tasks.size(), std::vector<double>(workers.size(), 0.0));
  for (size_t t = 0; t < tasks.size(); ++t) {
    for (size_t w = 0; w < workers.size(); ++w) {
      auto visit = geo::PlanTaskVisit(real_routines[w], tasks[t].location,
                                      workers[w].speed_kmpm,
                                      tasks[t].deadline_min);
      if (!visit.has_value()) continue;
      if (visit->detour_km > workers[w].detour_budget_km) continue;
      detours[t][w] = visit->detour_km;
      edges.push_back({static_cast<int>(t), static_cast<int>(w),
                       1.0 / (visit->detour_km + weight_floor_km)});
    }
  }
  matching::MatchResult result = matching::MaxWeightMatching(
      static_cast<int>(tasks.size()), static_cast<int>(workers.size()), edges);
  for (auto [t, w] : result.pairs) {
    plan.pairs.push_back(
        {t, w, detours[static_cast<size_t>(t)][static_cast<size_t>(w)]});
  }
  return plan;
}

AssignmentPlan LowerBoundAssign(const std::vector<SpatialTask>& tasks,
                                const std::vector<CandidateWorker>& workers,
                                double now_min, double weight_floor_km) {
  AssignmentPlan plan;
  if (tasks.empty() || workers.empty()) return plan;

  std::vector<matching::Edge> edges;
  std::vector<std::vector<double>> detours(
      tasks.size(), std::vector<double>(workers.size(), 0.0));
  for (size_t t = 0; t < tasks.size(); ++t) {
    for (size_t w = 0; w < workers.size(); ++w) {
      // The mobility-ignorant view: the same dis <= min(d/2, d_t) bound
      // PPI's stage 3 applies to predicted points, evaluated on the one
      // point this baseline knows — the current location. Whether the
      // worker's actual routine tolerates the detour is exactly what it
      // cannot know — hence its rejections.
      double dis = geo::Distance(workers[w].current_location,
                                 tasks[t].location);
      double d_t =
          workers[w].speed_kmpm * (tasks[t].deadline_min - now_min);
      if (tasks[t].deadline_min <= now_min) continue;
      if (dis > std::min(workers[w].detour_budget_km / 2.0, d_t)) continue;
      detours[t][w] = dis;
      edges.push_back({static_cast<int>(t), static_cast<int>(w),
                       1.0 / (dis + weight_floor_km)});
    }
  }
  matching::MatchResult result = matching::MaxWeightMatching(
      static_cast<int>(tasks.size()), static_cast<int>(workers.size()), edges);
  for (auto [t, w] : result.pairs) {
    plan.pairs.push_back(
        {t, w, detours[static_cast<size_t>(t)][static_cast<size_t>(w)]});
  }
  return plan;
}

}  // namespace tamp::assign
