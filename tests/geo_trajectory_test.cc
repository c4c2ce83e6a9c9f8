#include "geo/trajectory.h"

#include <cmath>

#include <gtest/gtest.h>

namespace tamp::geo {
namespace {

Trajectory MakeLine() {
  // Straight line along x at speed 1 km/min.
  return Trajectory({{0.0, 0.0, 0.0}, {5.0, 0.0, 5.0}, {10.0, 0.0, 10.0}});
}

TEST(TrajectoryTest, BasicAccessors) {
  Trajectory t = MakeLine();
  EXPECT_EQ(t.size(), 3u);
  EXPECT_DOUBLE_EQ(t.start_time(), 0.0);
  EXPECT_DOUBLE_EQ(t.end_time(), 10.0);
  EXPECT_DOUBLE_EQ(t.PathLength(), 10.0);
}

TEST(TrajectoryTest, AppendKeepsOrderInvariant) {
  Trajectory t;
  t.Append({0, 0, 1.0});
  t.Append({1, 0, 2.0});
  EXPECT_EQ(t.size(), 2u);
}

TEST(TrajectoryTest, PositionAtInterpolates) {
  Trajectory t = MakeLine();
  Point mid = t.PositionAt(2.5);
  EXPECT_NEAR(mid.x, 2.5, 1e-12);
  EXPECT_NEAR(mid.y, 0.0, 1e-12);
}

TEST(TrajectoryTest, PositionAtClampsToEndpoints) {
  Trajectory t = MakeLine();
  EXPECT_DOUBLE_EQ(t.PositionAt(-5.0).x, 0.0);
  EXPECT_DOUBLE_EQ(t.PositionAt(99.0).x, 10.0);
}

TEST(TrajectoryTest, PositionAtHandlesDwell) {
  // Same place at two timestamps (a dwell).
  Trajectory t({{1.0, 1.0, 0.0}, {1.0, 1.0, 10.0}, {2.0, 1.0, 11.0}});
  Point during_dwell = t.PositionAt(5.0);
  EXPECT_DOUBLE_EQ(during_dwell.x, 1.0);
}

TEST(TrajectoryTest, SliceSelectsWindow) {
  Trajectory t = MakeLine();
  Trajectory s = t.Slice(4.0, 11.0);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s[0].time_min, 5.0);
  EXPECT_DOUBLE_EQ(s[1].time_min, 10.0);
}

TEST(TrajectoryTest, LocationsDropTimestamps) {
  auto locs = MakeLine().Locations();
  ASSERT_EQ(locs.size(), 3u);
  EXPECT_DOUBLE_EQ(locs[1].x, 5.0);
}

TEST(TrajectoryTest, MinDistanceTo) {
  Trajectory t = MakeLine();
  EXPECT_NEAR(t.MinDistanceTo({5.0, 3.0}), 3.0, 1e-12);
}

// ---- Detour planning (the geometry behind Lemma 1 / the acceptance
// test). ----

TEST(PlanTaskVisitTest, OnRouteTaskHasZeroDetour) {
  Trajectory t = MakeLine();
  auto plan = PlanTaskVisit(t, {2.0, 0.0}, /*speed=*/1.0, /*deadline=*/100.0);
  ASSERT_TRUE(plan.has_value());
  EXPECT_NEAR(plan->detour_km, 0.0, 1e-12);
  EXPECT_NEAR(plan->arrival_time_min, 2.0, 1e-12);
}

TEST(PlanTaskVisitTest, OffRouteDetourIsTriangleExcess) {
  Trajectory t = MakeLine();
  // Task 3km above x=5: insert on either segment; best insertion is at the
  // point (5, 0): detour = dis((0,0),(5,3)) + dis((5,3),(5,0)) - 5 for
  // segment 0... the optimum over both segments.
  auto plan = PlanTaskVisit(t, {5.0, 3.0}, 1.0, 100.0);
  ASSERT_TRUE(plan.has_value());
  double leg1 = std::sqrt(25.0 + 9.0);
  double expected = leg1 + 3.0 - 5.0;  // Segment 0 insertion.
  EXPECT_NEAR(plan->detour_km, expected, 1e-9);
}

TEST(PlanTaskVisitTest, DeadlineExcludesLateSegments) {
  Trajectory t = MakeLine();
  // Task at (6,1). Without a deadline the cheap insertion is segment 1
  // (departing (5,0) at t=5, arrival ~6.41). With deadline 6.2 only the
  // early, costlier insertion from (0,0) (arrival ~6.08) is feasible.
  auto unconstrained = PlanTaskVisit(t, {6.0, 1.0}, 1.0, /*deadline=*/100.0);
  ASSERT_TRUE(unconstrained.has_value());
  EXPECT_EQ(unconstrained->segment_index, 1u);

  auto plan = PlanTaskVisit(t, {6.0, 1.0}, 1.0, /*deadline=*/6.2);
  ASSERT_TRUE(plan.has_value());
  EXPECT_LE(plan->arrival_time_min, 6.2);
  EXPECT_EQ(plan->segment_index, 0u);
  EXPECT_GT(plan->detour_km, unconstrained->detour_km);
}

TEST(PlanTaskVisitTest, UnreachableDeadlineReturnsNullopt) {
  Trajectory t = MakeLine();
  auto plan = PlanTaskVisit(t, {100.0, 100.0}, 1.0, /*deadline=*/1.0);
  EXPECT_FALSE(plan.has_value());
}

TEST(PlanTaskVisitTest, EmptyTrajectoryReturnsNullopt) {
  Trajectory empty;
  EXPECT_FALSE(PlanTaskVisit(empty, {0, 0}, 1.0, 10.0).has_value());
}

TEST(PlanTaskVisitTest, ZeroSpeedReturnsNullopt) {
  EXPECT_FALSE(PlanTaskVisit(MakeLine(), {1, 0}, 0.0, 10.0).has_value());
}

TEST(PlanTaskVisitTest, OutAndBackFromFinalPoint) {
  // Single-point trajectory: only the out-and-back option exists.
  Trajectory t({{0.0, 0.0, 0.0}});
  auto plan = PlanTaskVisit(t, {2.0, 0.0}, 1.0, 10.0);
  ASSERT_TRUE(plan.has_value());
  EXPECT_NEAR(plan->detour_km, 4.0, 1e-12);  // 2 km out + 2 km back.
  EXPECT_NEAR(plan->arrival_time_min, 2.0, 1e-12);
}

TEST(PlanTaskVisitTest, PrefersCheapestFeasibleInsertion) {
  // Route with a corner; task sits exactly on the second segment.
  Trajectory t({{0, 0, 0.0}, {4, 0, 4.0}, {4, 4, 8.0}});
  auto plan = PlanTaskVisit(t, {4.0, 2.0}, 1.0, 100.0);
  ASSERT_TRUE(plan.has_value());
  EXPECT_NEAR(plan->detour_km, 0.0, 1e-12);
  EXPECT_EQ(plan->segment_index, 1u);
}

// ---- The running example of the paper (Fig. 2): worker w4 moves from
// (4,2) to (9,2) (speed 1/unit); task tau2 at (6,1) with deadline 4. ----
TEST(PlanTaskVisitTest, PaperRunningExampleWorker4Task2) {
  Trajectory w4({{4.0, 2.0, 0.0}, {9.0, 2.0, 5.0}});
  auto plan = PlanTaskVisit(w4, {6.0, 1.0}, 1.0, /*deadline=*/4.0);
  ASSERT_TRUE(plan.has_value());
  // Detour = dis((4,2),(6,1)) + dis((6,1),(9,2)) - 5.
  double expected =
      std::sqrt(4.0 + 1.0) + std::sqrt(9.0 + 1.0) - 5.0;
  EXPECT_NEAR(plan->detour_km, expected, 1e-9);
  EXPECT_LE(plan->arrival_time_min, 4.0);
}

}  // namespace
}  // namespace tamp::geo
