#include "assign/candidates.h"

#include <gtest/gtest.h>

namespace tamp::assign {
namespace {

CandidateWorker MakeWorker(std::vector<geo::TimedPoint> predicted,
                           double detour_km = 4.0, double speed = 1.0) {
  CandidateWorker w;
  w.id = 0;
  w.predicted = std::move(predicted);
  w.detour_budget_km = detour_km;
  w.speed_kmpm = speed;
  w.matching_rate = 0.5;
  return w;
}

SpatialTask MakeTask(geo::Point loc, double deadline) {
  SpatialTask t;
  t.id = 0;
  t.location = loc;
  t.deadline_min = deadline;
  return t;
}

TEST(EvaluateCandidateTest, PointWithinBoundJoinsB) {
  // Worker detour budget 4 -> d/2 = 2; generous deadline.
  auto worker = MakeWorker({{0.0, 0.0, 10.0}, {1.0, 0.0, 20.0}});
  auto task = MakeTask({1.5, 0.0}, 1000.0);
  CandidateInfo info = EvaluateCandidate(task, worker, /*a=*/0.4, /*now=*/0.0);
  // dis are 1.5 and 0.5; with a=0.4: 1.5+0.4 <= 2 and 0.5+0.4 <= 2.
  EXPECT_EQ(info.b_count, 2);
  EXPECT_DOUBLE_EQ(info.min_b, 0.5);
  EXPECT_DOUBLE_EQ(info.min_dis, 0.5);
  EXPECT_TRUE(info.stage3_feasible);
}

TEST(EvaluateCandidateTest, MatchRadiusShrinksB) {
  auto worker = MakeWorker({{0.0, 0.0, 10.0}, {1.0, 0.0, 20.0}});
  auto task = MakeTask({1.5, 0.0}, 1000.0);
  // With a=0.8: 1.5+0.8 > 2 excludes the first point; 0.5+0.8 <= 2 stays.
  CandidateInfo info = EvaluateCandidate(task, worker, 0.8, 0.0);
  EXPECT_EQ(info.b_count, 1);
  EXPECT_DOUBLE_EQ(info.min_b, 0.5);
}

TEST(EvaluateCandidateTest, DeadlineTightensTheBound) {
  // Lemma 2: d_t = speed * (deadline - now). With speed 1 and deadline in
  // 1 minute, d_t = 1 < d/2 = 2, so points need dis + a <= 1: the far
  // point (1.5 + 0.4 > 1) drops out, the near one (0.5 + 0.4 <= 1) stays.
  // With the looser deadline of the first test both were in B.
  auto worker = MakeWorker({{0.0, 0.0, 10.0}, {1.0, 0.0, 20.0}});
  auto task = MakeTask({1.5, 0.0}, 1.0);
  CandidateInfo info = EvaluateCandidate(task, worker, 0.4, 0.0);
  ASSERT_EQ(info.b_count, 1);
  EXPECT_DOUBLE_EQ(info.min_b, 0.5);
  EXPECT_TRUE(info.stage3_feasible);
}

TEST(EvaluateCandidateTest, ExpiredDeadlineMakesEverythingInfeasible) {
  auto worker = MakeWorker({{0.0, 0.0, 10.0}}, 4.0, 1.0);
  auto task = MakeTask({0.0, 0.0}, -5.0);
  CandidateInfo info = EvaluateCandidate(task, worker, 0.0, 0.0);
  EXPECT_EQ(info.b_count, 0);
  EXPECT_FALSE(info.stage3_feasible);
}

TEST(EvaluateCandidateTest, NoPredictionsFallBackToCurrentLocation) {
  // Without predicted points B must stay empty (no Theorem-2 confidence),
  // but the known current location still feeds the stage-3 distance test.
  auto worker = MakeWorker({});
  worker.current_location = {0.5, 0.0};
  auto task = MakeTask({0.0, 0.0}, 100.0);
  CandidateInfo info = EvaluateCandidate(task, worker, 0.0, 0.0);
  EXPECT_EQ(info.b_count, 0);
  EXPECT_TRUE(info.stage3_feasible);
  EXPECT_DOUBLE_EQ(info.min_dis, 0.5);

  // A far-away worker with no predictions is infeasible.
  worker.current_location = {50.0, 0.0};
  CandidateInfo far = EvaluateCandidate(task, worker, 0.0, 0.0);
  EXPECT_FALSE(far.stage3_feasible);
}

TEST(EvaluateCandidateTest, DetourBudgetHalved) {
  // Theorem 2 uses d/2, not d: a point at distance 1.5 with a=0 passes
  // only when d/2 >= 1.5, i.e. d >= 3.
  auto task = MakeTask({1.5, 0.0}, 1000.0);
  auto tight = MakeWorker({{0.0, 0.0, 5.0}}, /*detour=*/2.9);
  auto loose = MakeWorker({{0.0, 0.0, 5.0}}, /*detour=*/3.1);
  EXPECT_EQ(EvaluateCandidate(task, tight, 0.0, 0.0).b_count, 0);
  EXPECT_EQ(EvaluateCandidate(task, loose, 0.0, 0.0).b_count, 1);
}

TEST(EvaluateCandidateTest, DeadlineEqualToNowIsExpired) {
  // The deadline test is strict (reach the task *before* tau.t): a task
  // whose deadline is exactly `now` admits nobody, even a worker standing
  // on it.
  auto worker = MakeWorker({{0.0, 0.0, 1.0}});
  worker.current_location = {0.0, 0.0};
  auto task = MakeTask({0.0, 0.0}, /*deadline=*/7.0);
  CandidateInfo info = EvaluateCandidate(task, worker, 0.5, /*now=*/7.0);
  EXPECT_EQ(info.b_count, 0);
  EXPECT_FALSE(info.stage3_feasible);
}

TEST(EvaluateCandidateTest, ExactBoundaryIsInsideB) {
  // Theorem-2 membership is the closed inequality dis + a <= bound: with
  // d/2 = 2, a point at distance 1.5 and a = 0.5 sits exactly on the
  // boundary and must be counted (the spatial-index prune relies on the
  // same closed-ball convention).
  auto worker = MakeWorker({{1.5, 0.0, 10.0}});
  auto task = MakeTask({0.0, 0.0}, 1000.0);
  CandidateInfo on = EvaluateCandidate(task, worker, 0.5, 0.0);
  ASSERT_EQ(on.b_count, 1);
  EXPECT_DOUBLE_EQ(on.min_b, 1.5);
  // Any radius past the boundary excludes it.
  CandidateInfo off = EvaluateCandidate(task, worker, 0.5 + 1e-9, 0.0);
  EXPECT_EQ(off.b_count, 0);
}

}  // namespace
}  // namespace tamp::assign
