// The remember_declines extension: declined (task, worker) pairs are never
// re-proposed. Exercises both the SpatialTask-level mechanism and the
// simulator-level ablation flag.
#include <gtest/gtest.h>

#include "assign/candidates.h"
#include "assign/ppi.h"
#include "core/pipeline.h"
#include "data/workload.h"

namespace tamp {
namespace {

TEST(DeclinedWorkerTest, DeclinedByLookup) {
  assign::SpatialTask task;
  task.declined_worker_ids = {3, 7};
  EXPECT_TRUE(task.DeclinedBy(3));
  EXPECT_TRUE(task.DeclinedBy(7));
  EXPECT_FALSE(task.DeclinedBy(1));
}

TEST(DeclinedWorkerTest, EvaluateCandidateExcludesDeclinedWorkers) {
  assign::SpatialTask task;
  task.location = {0.0, 0.0};
  task.deadline_min = 1000.0;
  assign::CandidateWorker worker;
  worker.id = 5;
  worker.predicted = {{{0.1, 0.0}, 10.0}};
  worker.current_location = {0.1, 0.0};
  worker.detour_budget_km = 4.0;
  worker.speed_kmpm = 1.0;

  assign::CandidateInfo ok = assign::EvaluateCandidate(task, worker, 0.0, 0.0);
  EXPECT_TRUE(ok.stage3_feasible);

  task.declined_worker_ids.push_back(5);
  assign::CandidateInfo blocked =
      assign::EvaluateCandidate(task, worker, 0.0, 0.0);
  EXPECT_FALSE(blocked.stage3_feasible);
  EXPECT_EQ(blocked.b_count, 0);
}

TEST(DeclinedWorkerTest, PpiSkipsDeclinedPairs) {
  assign::SpatialTask task;
  task.id = 0;
  task.location = {0.0, 0.0};
  task.deadline_min = 1000.0;
  task.declined_worker_ids = {0};  // The only worker already declined.
  assign::CandidateWorker worker;
  worker.id = 0;
  worker.predicted = {{{0.1, 0.0}, 10.0}};
  worker.current_location = {0.1, 0.0};
  worker.detour_budget_km = 4.0;
  worker.speed_kmpm = 1.0;
  worker.matching_rate = 0.9;
  assign::PpiConfig config;
  EXPECT_TRUE(assign::PpiAssign({task}, {worker}, 0.0, config).pairs.empty());
}

TEST(DeclineMemorySimulationTest, MemoryNeverHurtsCompletion) {
  data::WorkloadConfig workload_config;
  workload_config.num_workers = 10;
  workload_config.num_train_days = 2;
  workload_config.num_tasks = 120;
  workload_config.seed = 77;
  data::Workload workload = data::GenerateWorkload(workload_config);

  core::PipelineConfig config;
  config.trainer.meta.iterations = 3;
  config.trainer.fine_tune_steps = 5;
  core::TampPipeline pipeline(config);
  core::OfflineResult offline = pipeline.TrainOffline(workload);

  auto run = [&](bool remember) {
    core::PipelineConfig with_flag = config;
    with_flag.sim.remember_declines = remember;
    core::TampPipeline p(with_flag);
    return p.RunOnline(workload, offline, core::AssignMethod::kKm);
  };
  core::SimMetrics without = run(false);
  core::SimMetrics with = run(true);
  // Never re-proposing a declined pair diversifies the search, so the
  // completion count cannot drop and re-proposal waste cannot rise.
  EXPECT_GE(with.completed, without.completed);
  EXPECT_LE(with.assignments, without.assignments);
}

}  // namespace
}  // namespace tamp
