#include "core/simulator.h"

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "data/workload.h"

namespace tamp::core {
namespace {

data::WorkloadConfig SmallWorkload() {
  data::WorkloadConfig config;
  config.num_workers = 12;
  config.num_train_days = 2;
  config.num_tasks = 60;
  config.num_historical_tasks = 300;
  config.seed = 33;
  return config;
}

PipelineConfig SmallPipeline() {
  PipelineConfig config;
  config.trainer.model.hidden_dim = 6;
  config.trainer.meta.iterations = 3;
  config.trainer.fine_tune_steps = 3;
  config.trainer.projection_dim = 8;
  config.trainer.tree.game.k = 2;
  config.sim.prediction_horizon_steps = 4;
  config.sim.ggpso.generations = 10;
  config.sim.ggpso.population = 10;
  return config;
}

/// Shared fixture: one workload, one offline training pass.
class SimulatorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload_ = new data::Workload(data::GenerateWorkload(SmallWorkload()));
    pipeline_ = new TampPipeline(SmallPipeline());
    offline_ = new OfflineResult(pipeline_->TrainOffline(*workload_));
  }
  static void TearDownTestSuite() {
    delete offline_;
    delete pipeline_;
    delete workload_;
    offline_ = nullptr;
    pipeline_ = nullptr;
    workload_ = nullptr;
  }

  static data::Workload* workload_;
  static TampPipeline* pipeline_;
  static OfflineResult* offline_;
};

data::Workload* SimulatorTest::workload_ = nullptr;
TampPipeline* SimulatorTest::pipeline_ = nullptr;
OfflineResult* SimulatorTest::offline_ = nullptr;

TEST_F(SimulatorTest, UpperBoundNeverRejected) {
  SimMetrics m =
      pipeline_->RunOnline(*workload_, *offline_, AssignMethod::kUpperBound);
  EXPECT_EQ(m.assignments, m.accepted);
  EXPECT_DOUBLE_EQ(m.RejectionRatio(), 0.0);
  EXPECT_GT(m.completed, 0);
}

TEST_F(SimulatorTest, MetricsAccountingIsConsistent) {
  for (AssignMethod method :
       {AssignMethod::kUpperBound, AssignMethod::kLowerBound,
        AssignMethod::kKm, AssignMethod::kPpi, AssignMethod::kGgpso}) {
    SimMetrics m = pipeline_->RunOnline(*workload_, *offline_, method);
    EXPECT_EQ(m.total_tasks, 60) << AssignMethodName(method);
    EXPECT_LE(m.accepted, m.assignments) << AssignMethodName(method);
    EXPECT_EQ(m.completed, m.accepted) << AssignMethodName(method);
    EXPECT_LE(m.completed, m.total_tasks) << AssignMethodName(method);
    EXPECT_GE(m.total_cost_km, 0.0) << AssignMethodName(method);
    EXPECT_GE(m.CompletionRatio(), 0.0);
    EXPECT_LE(m.CompletionRatio(), 1.0);
    EXPECT_GE(m.RejectionRatio(), 0.0);
    EXPECT_LE(m.RejectionRatio(), 1.0);
  }
}

TEST_F(SimulatorTest, UpperBoundDominatesLowerBoundOnCompletion) {
  SimMetrics ub =
      pipeline_->RunOnline(*workload_, *offline_, AssignMethod::kUpperBound);
  SimMetrics lb =
      pipeline_->RunOnline(*workload_, *offline_, AssignMethod::kLowerBound);
  EXPECT_GE(ub.CompletionRatio(), lb.CompletionRatio());
}

TEST_F(SimulatorTest, AcceptedDetoursRespectBudgets) {
  // Every accepted assignment's cost is bounded by the (uniform) budget,
  // so the average cost is too.
  SimMetrics m = pipeline_->RunOnline(*workload_, *offline_, AssignMethod::kPpi);
  if (m.accepted > 0) {
    EXPECT_LE(m.AvgCostKm(), SmallWorkload().detour_budget_km + 1e-9);
  }
}

TEST_F(SimulatorTest, DeterministicAcrossRuns) {
  SimMetrics a = pipeline_->RunOnline(*workload_, *offline_, AssignMethod::kKm);
  SimMetrics b = pipeline_->RunOnline(*workload_, *offline_, AssignMethod::kKm);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_DOUBLE_EQ(a.total_cost_km, b.total_cost_km);
}

TEST(PurgeExpiredTasksTest, DropsLargeBacklogInOnePassPreservingOrder) {
  // Regression: the old purge restarted the scan from begin() after every
  // erase (O(n^2) when a backlog expires at once). The single-pass purge
  // must drop every expired task and keep survivors in release order.
  std::deque<assign::SpatialTask> pool;
  for (int i = 0; i < 2000; ++i) {
    assign::SpatialTask task;
    task.id = i;
    task.release_time_min = static_cast<double>(i);
    // Interleave expired (even ids, deadline 5) and live (odd ids).
    task.deadline_min = (i % 2 == 0) ? 5.0 : 1e6;
    pool.push_back(task);
  }
  const size_t dropped = PurgeExpiredTasks(pool, /*now_min=*/10.0);
  EXPECT_EQ(dropped, 1000u);
  ASSERT_EQ(pool.size(), 1000u);
  for (size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(pool[i].id, static_cast<int>(2 * i + 1));
  }
}

TEST(PurgeExpiredTasksTest, DeadlineEqualToNowExpires) {
  // Matches EvaluateCandidate's strict deadline test: a task due exactly
  // now can no longer be served, so the pool must not keep it.
  std::deque<assign::SpatialTask> pool(1);
  pool[0].deadline_min = 10.0;
  EXPECT_EQ(PurgeExpiredTasks(pool, 10.0), 1u);
  EXPECT_TRUE(pool.empty());
}

TEST(AssignMethodNameTest, AllNamed) {
  EXPECT_EQ(AssignMethodName(AssignMethod::kUpperBound), "UB");
  EXPECT_EQ(AssignMethodName(AssignMethod::kLowerBound), "LB");
  EXPECT_EQ(AssignMethodName(AssignMethod::kKm), "KM");
  EXPECT_EQ(AssignMethodName(AssignMethod::kPpi), "PPI");
  EXPECT_EQ(AssignMethodName(AssignMethod::kGgpso), "GGPSO");
}

TEST(SimMetricsTest, RatiosHandleZeroDenominators) {
  SimMetrics m;
  EXPECT_EQ(m.CompletionRatio(), 0.0);
  EXPECT_EQ(m.RejectionRatio(), 0.0);
  EXPECT_EQ(m.AvgCostKm(), 0.0);
}

}  // namespace
}  // namespace tamp::core
