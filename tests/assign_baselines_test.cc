#include <set>

#include <gtest/gtest.h>

#include "assign/bounds.h"
#include "assign/ggpso.h"
#include "assign/km_assigner.h"
#include "common/rng.h"

namespace tamp::assign {
namespace {

SpatialTask MakeTask(int id, geo::Point loc, double deadline = 1000.0) {
  SpatialTask t;
  t.id = id;
  t.location = loc;
  t.deadline_min = deadline;
  return t;
}

CandidateWorker MakeWorker(int id, geo::Point current,
                           std::vector<geo::TimedPoint> predicted,
                           double detour_km = 4.0) {
  CandidateWorker w;
  w.id = id;
  w.current_location = current;
  w.predicted = std::move(predicted);
  w.detour_budget_km = detour_km;
  w.speed_kmpm = 1.0;
  w.matching_rate = 0.5;
  return w;
}

void ExpectDisjoint(const AssignmentPlan& plan) {
  std::set<int> tasks, workers;
  for (const auto& pair : plan.pairs) {
    EXPECT_TRUE(tasks.insert(pair.task_index).second);
    EXPECT_TRUE(workers.insert(pair.worker_index).second);
  }
}

TEST(KmAssignTest, MatchesNearestFeasible) {
  std::vector<SpatialTask> tasks = {MakeTask(0, {0, 0}), MakeTask(1, {5, 0})};
  std::vector<CandidateWorker> workers = {
      MakeWorker(0, {0, 0}, {{0.2, 0.0, 10.0}}),
      MakeWorker(1, {5, 0}, {{5.1, 0.0, 10.0}}),
  };
  AssignmentPlan plan = KmAssign(tasks, workers, 0.0, 0.2);
  ExpectDisjoint(plan);
  ASSERT_EQ(plan.pairs.size(), 2u);
}

TEST(KmAssignTest, RespectsFeasibilityBound) {
  // Worker's predicted point is 3 km away but budget d=4 -> bound 2: no.
  std::vector<SpatialTask> tasks = {MakeTask(0, {3.0, 0.0})};
  std::vector<CandidateWorker> workers = {
      MakeWorker(0, {0, 0}, {{0.0, 0.0, 10.0}})};
  EXPECT_TRUE(KmAssign(tasks, workers, 0.0, 0.0).pairs.empty());
}

TEST(UpperBoundAssignTest, UsesRealTrajectories) {
  std::vector<SpatialTask> tasks = {MakeTask(0, {2.0, 1.0})};
  // The predicted view is useless, but the real routine passes close by.
  std::vector<CandidateWorker> workers = {
      MakeWorker(0, {0, 0}, {{50.0, 50.0, 10.0}})};
  std::vector<geo::Trajectory> real = {
      geo::Trajectory({{0, 0, 0.0}, {4, 0, 4.0}})};
  AssignmentPlan plan = UpperBoundAssign(tasks, workers, real, 0.0);
  ASSERT_EQ(plan.pairs.size(), 1u);
  // Detour = dis((0,0),(2,1)) + dis((2,1),(4,0)) - 4.
  double expected = std::sqrt(5.0) + std::sqrt(5.0) - 4.0;
  EXPECT_NEAR(plan.pairs[0].expected_detour_km, expected, 1e-9);
}

TEST(UpperBoundAssignTest, AcceptanceByConstruction) {
  // Every UB pair satisfies the real-trajectory constraints, so replaying
  // the acceptance test never rejects (rejection rate 0, Section IV-A).
  tamp::Rng rng(5);
  std::vector<SpatialTask> tasks;
  std::vector<CandidateWorker> workers;
  std::vector<geo::Trajectory> real;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back(MakeTask(i, {rng.Uniform(0, 10), rng.Uniform(0, 10)},
                             rng.Uniform(10, 40)));
    geo::Point start{rng.Uniform(0, 10), rng.Uniform(0, 10)};
    geo::Point end{rng.Uniform(0, 10), rng.Uniform(0, 10)};
    real.push_back(geo::Trajectory(
        {{start, 0.0}, {end, geo::Distance(start, end)}}));
    workers.push_back(MakeWorker(i, start, {}));
  }
  AssignmentPlan plan = UpperBoundAssign(tasks, workers, real, 0.0);
  ExpectDisjoint(plan);
  for (const auto& pair : plan.pairs) {
    auto visit = geo::PlanTaskVisit(real[pair.worker_index],
                                    tasks[pair.task_index].location, 1.0,
                                    tasks[pair.task_index].deadline_min);
    ASSERT_TRUE(visit.has_value());
    EXPECT_LE(visit->detour_km,
              workers[pair.worker_index].detour_budget_km + 1e-9);
  }
}

TEST(LowerBoundAssignTest, UsesCurrentLocationOnly) {
  std::vector<SpatialTask> tasks = {MakeTask(0, {1.0, 0.0})};
  std::vector<CandidateWorker> workers = {
      MakeWorker(0, {0, 0}, /*predicted=*/{})};
  AssignmentPlan plan = LowerBoundAssign(tasks, workers, 0.0);
  ASSERT_EQ(plan.pairs.size(), 1u);
  // LB's naive cost estimate is the current distance itself.
  EXPECT_NEAR(plan.pairs[0].expected_detour_km, 1.0, 1e-12);
}

TEST(LowerBoundAssignTest, DetourBudgetBindsOutAndBack) {
  // Task 2.5 km away exceeds the d/2 = 2 km bound (out-and-back logic).
  std::vector<SpatialTask> tasks = {MakeTask(0, {2.5, 0.0})};
  std::vector<CandidateWorker> workers = {MakeWorker(0, {0, 0}, {})};
  EXPECT_TRUE(LowerBoundAssign(tasks, workers, 0.0).pairs.empty());
}

TEST(GgpsoAssignTest, ProducesValidPlans) {
  tamp::Rng rng(7);
  std::vector<SpatialTask> tasks;
  std::vector<CandidateWorker> workers;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back(MakeTask(i, {rng.Uniform(0, 10), rng.Uniform(0, 10)},
                             rng.Uniform(20, 60)));
    std::vector<geo::TimedPoint> pred;
    for (int p = 0; p < 3; ++p) {
      pred.push_back(
          {{rng.Uniform(0, 10), rng.Uniform(0, 10)}, 10.0 * (p + 1)});
    }
    workers.push_back(
        MakeWorker(i, {rng.Uniform(0, 10), rng.Uniform(0, 10)}, pred));
  }
  GgpsoConfig config;
  config.generations = 20;
  AssignmentPlan plan = GgpsoAssign(tasks, workers, 0.0, /*a=*/0.5, config);
  ExpectDisjoint(plan);
}

TEST(GgpsoAssignTest, FindsTheObviousMatching) {
  // One feasible worker per task: GGPSO must assign all of them.
  std::vector<SpatialTask> tasks;
  std::vector<CandidateWorker> workers;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back(MakeTask(i, {5.0 * i, 0.0}));
    workers.push_back(
        MakeWorker(i, {5.0 * i, 0.0}, {{5.0 * i + 0.2, 0.0, 10.0}}));
  }
  AssignmentPlan plan =
      GgpsoAssign(tasks, workers, 0.0, /*a=*/0.0, GgpsoConfig{});
  EXPECT_EQ(plan.pairs.size(), 4u);
}

TEST(GgpsoAssignTest, DeterministicForSeed) {
  std::vector<SpatialTask> tasks = {MakeTask(0, {0, 0}), MakeTask(1, {2, 0})};
  std::vector<CandidateWorker> workers = {
      MakeWorker(0, {0, 0}, {{0.1, 0.0, 10.0}, {1.9, 0.0, 20.0}}),
      MakeWorker(1, {2, 0}, {{2.1, 0.0, 10.0}}),
  };
  GgpsoConfig config;
  config.seed = 11;
  AssignmentPlan a = GgpsoAssign(tasks, workers, 0.0, /*a=*/0.5, config);
  AssignmentPlan b = GgpsoAssign(tasks, workers, 0.0, /*a=*/0.5, config);
  ASSERT_EQ(a.pairs.size(), b.pairs.size());
  for (size_t i = 0; i < a.pairs.size(); ++i) {
    EXPECT_EQ(a.pairs[i].task_index, b.pairs[i].task_index);
    EXPECT_EQ(a.pairs[i].worker_index, b.pairs[i].worker_index);
  }
}

TEST(GgpsoAssignTest, EmptyInputs) {
  GgpsoConfig config;
  EXPECT_TRUE(GgpsoAssign({}, {}, 0.0, 0.5, config).pairs.empty());
}

}  // namespace
}  // namespace tamp::assign
