#include "assign/candidate_index.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "assign/candidates.h"
#include "assign/km_assigner.h"
#include "common/obs/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "data/workload.h"

namespace tamp::assign {
namespace {

SpatialTask MakeTask(int id, geo::Point loc, double deadline) {
  SpatialTask t;
  t.id = id;
  t.location = loc;
  t.deadline_min = deadline;
  return t;
}

CandidateWorker MakeWorker(int id, std::vector<geo::TimedPoint> predicted,
                           geo::Point current, double detour_km, double speed,
                           double mr) {
  CandidateWorker w;
  w.id = id;
  w.predicted = std::move(predicted);
  w.current_location = current;
  w.detour_budget_km = detour_km;
  w.speed_kmpm = speed;
  w.matching_rate = mr;
  return w;
}

/// Random heterogeneous batch: varied budgets, speeds, deadlines, and a
/// fraction of workers with no predicted points at all.
void RandomBatch(tamp::Rng& rng, int num_tasks, int num_workers,
                 std::vector<SpatialTask>* tasks,
                 std::vector<CandidateWorker>* workers) {
  tasks->clear();
  workers->clear();
  for (int i = 0; i < num_tasks; ++i) {
    tasks->push_back(MakeTask(i, {rng.Uniform(0, 25), rng.Uniform(0, 12)},
                              rng.Uniform(-5.0, 60.0)));
  }
  for (int i = 0; i < num_workers; ++i) {
    std::vector<geo::TimedPoint> pred;
    const int steps = static_cast<int>(rng.UniformInt(0, 5));
    for (int p = 0; p < steps; ++p) {
      pred.push_back(
          {{rng.Uniform(0, 25), rng.Uniform(0, 12)}, 10.0 * (p + 1)});
    }
    workers->push_back(MakeWorker(
        i, std::move(pred), {rng.Uniform(0, 25), rng.Uniform(0, 12)},
        rng.Uniform(0.5, 6.0), rng.Uniform(0.1, 1.0), rng.Uniform01()));
  }
}

TEST(CandidateIndexTest, QueryIsSupersetOfAcceptingWorkers) {
  // The contract everything rests on: any worker whose EvaluateCandidate
  // outcome matters (non-empty B or stage-3 feasible) must be returned by
  // the pruning query for that task.
  tamp::Rng rng(91);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<SpatialTask> tasks;
    std::vector<CandidateWorker> workers;
    RandomBatch(rng, 30, 40, &tasks, &workers);
    const double a = rng.Uniform(0.0, 1.0);
    const double now = rng.Uniform(0.0, 10.0);
    CandidateIndex index(workers);
    std::vector<int> hits;
    for (const SpatialTask& task : tasks) {
      index.QueryWorkers(task.location, index.PruneRadius(task, a, now),
                         hits);
      for (size_t w = 0; w < workers.size(); ++w) {
        CandidateInfo info = EvaluateCandidate(task, workers[w], a, now);
        if (info.b_distances.empty() && !info.stage3_feasible) continue;
        EXPECT_TRUE(std::binary_search(hits.begin(), hits.end(),
                                       static_cast<int>(w)))
            << "trial=" << trial << " task=" << task.id << " worker=" << w;
      }
    }
  }
}

/// The indexed table must equal the dense T x W sweep (the oracle) row for
/// row, bitwise. Returns the number of rows compared.
size_t ExpectSameTable(const std::vector<std::vector<TaskCandidate>>& dense,
                       const std::vector<std::vector<TaskCandidate>>& indexed) {
  EXPECT_EQ(dense.size(), indexed.size());
  if (dense.size() != indexed.size()) return 0;
  size_t rows = 0;
  for (size_t t = 0; t < dense.size(); ++t) {
    EXPECT_EQ(dense[t].size(), indexed[t].size()) << "task " << t;
    if (dense[t].size() != indexed[t].size()) continue;
    for (size_t k = 0; k < dense[t].size(); ++k) {
      EXPECT_EQ(dense[t][k].worker, indexed[t][k].worker);
      EXPECT_EQ(dense[t][k].b_count, indexed[t][k].b_count);
      EXPECT_EQ(dense[t][k].min_b, indexed[t][k].min_b);
      EXPECT_EQ(dense[t][k].min_dis, indexed[t][k].min_dis);
      EXPECT_EQ(dense[t][k].stage3_feasible, indexed[t][k].stage3_feasible);
    }
    rows += dense[t].size();
  }
  return rows;
}

TEST(CandidateIndexTest, GenerateCandidatesDenseIndexedParity) {
  tamp::Rng rng(17);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<SpatialTask> tasks;
    std::vector<CandidateWorker> workers;
    RandomBatch(rng, 25, 35, &tasks, &workers);
    const double a = rng.Uniform(0.0, 1.0);
    const double now = rng.Uniform(0.0, 10.0);
    CandidateIndex index(workers);
    CandidateGenStats dense_stats, indexed_stats;
    auto dense = GenerateCandidates(tasks, workers, a, now, nullptr,
                                    &dense_stats);
    auto indexed = GenerateCandidates(tasks, workers, a, now, &index,
                                      &indexed_stats);
    ExpectSameTable(dense, indexed);
    EXPECT_EQ(dense_stats.evaluated,
              static_cast<int64_t>(tasks.size() * workers.size()));
    EXPECT_EQ(dense_stats.pruned, 0);
    EXPECT_LE(indexed_stats.evaluated, dense_stats.evaluated);
    EXPECT_EQ(indexed_stats.evaluated + indexed_stats.pruned,
              dense_stats.evaluated);
  }
}

TEST(CandidateIndexTest, ObsCountersIncrementExactlyOncePerBuild) {
  // Regression (satellite audit): assign.candidates_pruned must advance by
  // exactly `dense - evaluated` per indexed build — once, not once per
  // task slot or per thread — and mirror the CandidateGenStats the caller
  // receives. A double increment would silently inflate the bench-gated
  // op counts.
  tamp::Rng rng(271);
  std::vector<SpatialTask> tasks;
  std::vector<CandidateWorker> workers;
  RandomBatch(rng, 30, 40, &tasks, &workers);
  const double a = 0.5, now = 4.0;
  CandidateIndex index(workers);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const int64_t evals_before =
      registry.GetCounter("assign.candidate_evals").value();
  const int64_t pruned_before =
      registry.GetCounter("assign.candidates_pruned").value();
  CandidateGenStats stats;
  GenerateCandidates(tasks, workers, a, now, &index, &stats);
  const int64_t evals_delta =
      registry.GetCounter("assign.candidate_evals").value() - evals_before;
  const int64_t pruned_delta =
      registry.GetCounter("assign.candidates_pruned").value() - pruned_before;
  EXPECT_EQ(evals_delta, stats.evaluated);
  EXPECT_EQ(pruned_delta, stats.pruned);
  EXPECT_EQ(evals_delta + pruned_delta,
            static_cast<int64_t>(tasks.size()) *
                static_cast<int64_t>(workers.size()));
}

TEST(CandidateIndexTest, ExpiredTaskPrunesEveryWorker) {
  std::vector<CandidateWorker> workers = {
      MakeWorker(0, {{{1.0, 1.0}, 10.0}}, {1.0, 1.0}, 4.0, 0.5, 0.5)};
  CandidateIndex index(workers);
  SpatialTask task = MakeTask(0, {1.0, 1.0}, /*deadline=*/5.0);
  EXPECT_LT(index.PruneRadius(task, 0.5, /*now=*/5.0), 0.0);
  std::vector<int> hits;
  index.QueryWorkers(task.location, index.PruneRadius(task, 0.5, 5.0), hits);
  EXPECT_TRUE(hits.empty());
}

/// Workload-scale plan parity. Workers' platform-visible routines are
/// synthesized from their real test trajectories (sampled forward from
/// `now`), so the batch has the spatial structure of the paper's datasets
/// without running the NN forecaster.
class PlanParityTest : public ::testing::TestWithParam<data::WorkloadKind> {
 protected:
  struct Batch {
    std::vector<SpatialTask> tasks;
    std::vector<CandidateWorker> workers;
    double now = 0.0;
  };

  static Batch BuildBatch(data::WorkloadKind kind) {
    data::WorkloadConfig config;
    config.kind = kind;
    config.num_workers = 50;
    config.num_train_days = 1;
    config.num_tasks = 300;
    config.num_historical_tasks = 50;
    config.seed = 4242;
    data::Workload workload = data::GenerateWorkload(config);

    Batch batch;
    // A mid-horizon batch instant with a healthy pool.
    batch.now = workload.task_stream[workload.task_stream.size() / 2]
                    .release_time_min;
    for (const SpatialTask& task : workload.task_stream) {
      if (task.release_time_min <= batch.now &&
          task.deadline_min > batch.now) {
        batch.tasks.push_back(task);
      }
    }
    for (size_t w = 0; w < workload.workers.size(); ++w) {
      const data::WorkerRecord& record = workload.workers[w];
      std::vector<geo::TimedPoint> pred;
      for (int s = 1; s <= 5; ++s) {
        const double t = batch.now + 10.0 * s;
        pred.push_back({record.test.PositionAt(t), t});
      }
      batch.workers.push_back(MakeWorker(
          record.id, std::move(pred), record.test.PositionAt(batch.now),
          record.detour_budget_km, record.speed_kmpm,
          0.2 + 0.6 * static_cast<double>(w) /
                    static_cast<double>(workload.workers.size())));
    }
    return batch;
  }

  static void ExpectSamePlan(const AssignmentPlan& a,
                             const AssignmentPlan& b) {
    ASSERT_EQ(a.pairs.size(), b.pairs.size());
    for (size_t i = 0; i < a.pairs.size(); ++i) {
      EXPECT_EQ(a.pairs[i].task_index, b.pairs[i].task_index);
      EXPECT_EQ(a.pairs[i].worker_index, b.pairs[i].worker_index);
      // Bit-identical, not approximately equal: the indexed path must
      // evaluate exactly the same arithmetic on the surviving pairs.
      EXPECT_EQ(a.pairs[i].expected_detour_km, b.pairs[i].expected_detour_km);
    }
  }
};

TEST_P(PlanParityTest, TableDenseAndIndexedBitIdentical) {
  // The dense T x W sweep is the oracle of the indexed (and incremental)
  // candidate source at workload scale. PPI and GGPSO consume this table
  // as-is, so table identity is their plan identity; KM keeps a dense
  // switch and is also checked end to end below. 0.5 km is the PPI/GGPSO
  // default radius, 1.0 km the one the KM checks use.
  Batch batch = BuildBatch(GetParam());
  ASSERT_FALSE(batch.tasks.empty());
  for (double radius : {0.5, 1.0}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message()
                   << "radius " << radius << ", " << threads << " threads");
      SetParallelThreadCount(threads);
      CandidateIndex index(batch.workers);
      auto dense = GenerateCandidates(batch.tasks, batch.workers, radius,
                                      batch.now, nullptr);
      auto indexed = GenerateCandidates(batch.tasks, batch.workers, radius,
                                        batch.now, &index);
      EXPECT_GT(ExpectSameTable(dense, indexed), 0u);
    }
  }
  SetParallelThreadCount(0);
}

TEST_P(PlanParityTest, KmDenseAndIndexedBitIdentical) {
  Batch batch = BuildBatch(GetParam());
  for (int threads : {1, 4}) {
    SetParallelThreadCount(threads);
    AssignmentPlan dense =
        KmAssign(batch.tasks, batch.workers, batch.now, /*match_radius_km=*/1.0,
                 /*weight_floor_km=*/1e-3, /*use_spatial_index=*/false);
    AssignmentPlan indexed =
        KmAssign(batch.tasks, batch.workers, batch.now, 1.0, 1e-3, true);
    EXPECT_FALSE(dense.pairs.empty());
    ExpectSamePlan(dense, indexed);
  }
  SetParallelThreadCount(0);
}

TEST_P(PlanParityTest, IndexActuallyPrunes) {
  // Guard against the parity tests passing vacuously because the prune
  // radius covers the whole map: on both workloads the index must skip a
  // substantial share of the dense pairs.
  Batch batch = BuildBatch(GetParam());
  CandidateIndex index(batch.workers);
  CandidateGenStats stats;
  GenerateCandidates(batch.tasks, batch.workers, /*match_radius_km=*/1.0,
                     batch.now, &index, &stats);
  EXPECT_GT(stats.pruned, 0);
  EXPECT_LT(stats.evaluated,
            static_cast<int64_t>(batch.tasks.size() * batch.workers.size()));
}

INSTANTIATE_TEST_SUITE_P(Workloads, PlanParityTest,
                         ::testing::Values(
                             data::WorkloadKind::kPortoDidi,
                             data::WorkloadKind::kGowallaFoursquare),
                         [](const auto& info) {
                           return info.param == data::WorkloadKind::kPortoDidi
                                      ? "Porto"
                                      : "Gowalla";
                         });

}  // namespace
}  // namespace tamp::assign
