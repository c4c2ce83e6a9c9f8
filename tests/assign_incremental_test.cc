#include "assign/incremental.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "assign/candidate_index.h"
#include "assign/candidates.h"
#include "assign/ggpso.h"
#include "assign/km_assigner.h"
#include "assign/ppi.h"
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

void ExpectSameTable(const std::vector<std::vector<TaskCandidate>>& a,
                     const std::vector<std::vector<TaskCandidate>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t t = 0; t < a.size(); ++t) {
    ASSERT_EQ(a[t].size(), b[t].size()) << "task " << t;
    for (size_t k = 0; k < a[t].size(); ++k) {
      EXPECT_EQ(a[t][k].worker, b[t][k].worker) << "task " << t;
      EXPECT_EQ(a[t][k].b_count, b[t][k].b_count) << "task " << t;
      EXPECT_EQ(a[t][k].min_b, b[t][k].min_b) << "task " << t;
      EXPECT_EQ(a[t][k].min_dis, b[t][k].min_dis) << "task " << t;
      EXPECT_EQ(a[t][k].stage3_feasible, b[t][k].stage3_feasible)
          << "task " << t;
    }
  }
}

/// Random heterogeneous batch with declines sprinkled in (the one
/// EvaluateCandidate input the row cache does not key, so it must be
/// exercised).
void RandomBatch(tamp::Rng& rng, int num_tasks, int num_workers,
                 std::vector<SpatialTask>* tasks,
                 std::vector<CandidateWorker>* workers) {
  tasks->clear();
  workers->clear();
  for (int i = 0; i < num_tasks; ++i) {
    SpatialTask t = MakeTask(i, {rng.Uniform(0, 25), rng.Uniform(0, 12)},
                             rng.Uniform(-5.0, 60.0));
    while (rng.Bernoulli(0.1)) {
      t.declined_worker_ids.push_back(
          static_cast<int>(rng.UniformInt(0, num_workers - 1)));
    }
    tasks->push_back(std::move(t));
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

TEST(IncrementalEngineTest, TableMatchesGenerateCandidatesOnRandomBatches) {
  // Batch-by-batch parity against both cold paths, with worker churn
  // (random subsets each batch) and random perturbations so the delta
  // Insert/RemoveLabel machinery is exercised, not just the first build.
  tamp::Rng rng(2024);
  IncrementalCandidateEngine engine;
  std::vector<SpatialTask> tasks;
  std::vector<CandidateWorker> all_workers;
  for (int batch = 0; batch < 8; ++batch) {
    RandomBatch(rng, 25, 35, &tasks, &all_workers);
    std::vector<CandidateWorker> workers;
    for (const CandidateWorker& w : all_workers) {
      if (rng.Bernoulli(0.8)) workers.push_back(w);  // Churn.
    }
    if (workers.empty()) workers.push_back(all_workers[0]);
    const double a = rng.Uniform(0.0, 1.0);
    const double now = rng.Uniform(0.0, 10.0);

    CandidateGenStats dense_stats, inc_stats;
    auto dense =
        GenerateCandidates(tasks, workers, a, now, nullptr, &dense_stats);
    CandidateIndex index(workers);
    auto indexed = GenerateCandidates(tasks, workers, a, now, &index);
    auto incremental = engine.BuildTable(tasks, workers, a, now, &inc_stats);
    ExpectSameTable(dense, incremental);
    ExpectSameTable(indexed, incremental);
    // The accounting identity: every dense pair is evaluated, pruned, or a
    // cache hit.
    EXPECT_EQ(inc_stats.evaluated + inc_stats.pruned + inc_stats.cache_hits,
              static_cast<int64_t>(tasks.size()) *
                  static_cast<int64_t>(workers.size()))
        << "batch " << batch;
    EXPECT_EQ(engine.num_indexed_workers(), workers.size());
  }
}

TEST(IncrementalEngineTest, SameTickExpiryAdmitsNoCandidatesAnywhere) {
  // Regression (satellite audit): the simulator purges deadline <= now
  // *before* assignment, so a task expiring exactly on the batch tick must
  // never be assigned — which requires every candidate path (dense,
  // indexed, incremental) to agree that such a task has no candidates, or
  // an expire-then-assign same tick would be counted twice.
  std::vector<CandidateWorker> workers = {
      MakeWorker(0, {{{1.0, 1.0}, 10.0}}, {1.0, 1.0}, 4.0, 0.5, 0.5)};
  std::vector<SpatialTask> tasks = {
      MakeTask(0, {1.0, 1.0}, /*deadline=*/5.0)};
  const double now = 5.0;  // deadline == now: expired (Def. 1, strict <).
  auto dense = GenerateCandidates(tasks, workers, 0.5, now, nullptr);
  CandidateIndex index(workers);
  auto indexed = GenerateCandidates(tasks, workers, 0.5, now, &index);
  IncrementalCandidateEngine engine;
  auto incremental = engine.BuildTable(tasks, workers, 0.5, now);
  EXPECT_TRUE(dense[0].empty());
  EXPECT_TRUE(indexed[0].empty());
  EXPECT_TRUE(incremental[0].empty());
  for (AssignmentPlan plan :
       {KmAssign(tasks, workers, now, 0.5),
        PpiAssign(tasks, workers, now, PpiConfig{}),
        GgpsoAssign(tasks, workers, now, GgpsoConfig{})}) {
    EXPECT_TRUE(plan.pairs.empty());
  }
}

TEST(IncrementalEngineTest, SecondPassOverSameInstantsHitsTheCache) {
  // The cross-run reuse story: replaying the same batch instants with the
  // same worker geometry (what the sweep benches do when several methods
  // share one pipeline) must serve rows from the cache, bit-identically.
  tamp::Rng rng(77);
  std::vector<SpatialTask> tasks;
  std::vector<CandidateWorker> workers;
  RandomBatch(rng, 30, 40, &tasks, &workers);
  IncrementalCandidateEngine engine;
  const double a = 0.5;
  const std::vector<double> nows = {10.0, 12.0, 14.0};

  std::vector<std::vector<std::vector<TaskCandidate>>> first;
  CandidateGenStats first_stats;
  for (double now : nows) {
    first.push_back(engine.BuildTable(tasks, workers, a, now, &first_stats));
  }
  EXPECT_EQ(first_stats.cache_hits, 0);  // Nothing to reuse yet.

  CandidateGenStats second_stats;
  for (size_t i = 0; i < nows.size(); ++i) {
    auto table = engine.BuildTable(tasks, workers, a, nows[i], &second_stats);
    ExpectSameTable(first[i], table);
  }
  // Every row that was evaluated in pass one is a hit in pass two.
  EXPECT_EQ(second_stats.cache_hits, first_stats.evaluated);
  EXPECT_EQ(second_stats.evaluated, 0);
  EXPECT_GT(second_stats.cache_hits, 0);
  EXPECT_EQ(engine.num_snapshots(), nows.size());
}

TEST(IncrementalEngineTest, MovedWorkerMissesOnlyItsOwnRows) {
  tamp::Rng rng(31);
  std::vector<SpatialTask> tasks;
  std::vector<CandidateWorker> workers;
  RandomBatch(rng, 20, 30, &tasks, &workers);
  // Drop declines for this test: hit accounting below assumes every
  // non-pruned pair has a row.
  for (SpatialTask& t : tasks) t.declined_worker_ids.clear();
  IncrementalCandidateEngine engine;
  const double a = 0.5, now = 5.0;
  CandidateGenStats pass1;
  auto before = engine.BuildTable(tasks, workers, a, now, &pass1);

  // Move one worker; geometry of the rest is untouched.
  workers[7].current_location.x += 0.25;
  CandidateGenStats pass2;
  auto after = engine.BuildTable(tasks, workers, a, now, &pass2);
  EXPECT_GT(pass2.cache_hits, 0);
  // The moved worker's rows re-evaluate (or vanish/appear); everyone
  // else's reuse. Verify against a cold build of the new state.
  auto cold = GenerateCandidates(tasks, workers, a, now, nullptr);
  ExpectSameTable(cold, after);
  for (size_t t = 0; t < after.size(); ++t) {
    for (size_t k = 0; k < after[t].size(); ++k) {
      if (after[t][k].worker != 7) {
        // Unmoved workers' rows must be bitwise what the first pass held
        // (when present there).
        for (const TaskCandidate& old_tc : before[t]) {
          if (old_tc.worker == after[t][k].worker) {
            EXPECT_EQ(old_tc.min_dis, after[t][k].min_dis);
            EXPECT_EQ(old_tc.min_b, after[t][k].min_b);
          }
        }
      }
    }
  }
}

TEST(IncrementalEngineTest, StatsAndTablesAreThreadCountInvariant) {
  tamp::Rng rng(404);
  std::vector<SpatialTask> tasks;
  std::vector<CandidateWorker> workers;
  RandomBatch(rng, 30, 40, &tasks, &workers);

  auto run = [&](int threads) {
    SetParallelThreadCount(threads);
    IncrementalCandidateEngine engine;
    CandidateGenStats stats;
    std::vector<std::vector<std::vector<TaskCandidate>>> tables;
    for (double now : {3.0, 5.0, 3.0, 7.0}) {  // Includes a replay.
      tables.push_back(engine.BuildTable(tasks, workers, 0.5, now, &stats));
    }
    SetParallelThreadCount(0);
    return std::make_pair(stats, tables);
  };
  auto [stats1, tables1] = run(1);
  auto [stats4, tables4] = run(4);
  EXPECT_EQ(stats1.evaluated, stats4.evaluated);
  EXPECT_EQ(stats1.pruned, stats4.pruned);
  EXPECT_EQ(stats1.cache_hits, stats4.cache_hits);
  EXPECT_GT(stats1.cache_hits, 0);  // The replayed instant hit.
  ASSERT_EQ(tables1.size(), tables4.size());
  for (size_t i = 0; i < tables1.size(); ++i) {
    ExpectSameTable(tables1[i], tables4[i]);
  }
}

/// Workload-scale, multi-batch plan parity: cold (indexed, and dense where
/// the assigner has a dense oracle) vs incremental across a churn
/// schedule — workers leave and rejoin between batches, tasks expire and
/// accumulate declines — for each assigner, on both datasets, at 1 and 4
/// threads.
class IncrementalPlanParityTest
    : public ::testing::TestWithParam<data::WorkloadKind> {
 protected:
  struct Batch {
    std::vector<SpatialTask> tasks;
    std::vector<CandidateWorker> workers;
    double now = 0.0;
  };

  static std::vector<Batch> BuildBatches(data::WorkloadKind kind) {
    data::WorkloadConfig config;
    config.kind = kind;
    config.num_workers = 50;
    config.num_train_days = 1;
    config.num_tasks = 300;
    config.num_historical_tasks = 50;
    config.seed = 4242;
    data::Workload workload = data::GenerateWorkload(config);

    const double start = workload.task_stream[workload.task_stream.size() / 2]
                             .release_time_min;
    std::vector<Batch> batches;
    for (int b = 0; b < 5; ++b) {
      Batch batch;
      batch.now = start + 2.0 * b;
      for (const SpatialTask& task : workload.task_stream) {
        if (task.release_time_min <= batch.now &&
            task.deadline_min > batch.now) {
          SpatialTask pooled = task;
          // Carried-over tasks accumulate declines over batches
          // (remember_declines mode): deterministic schedule.
          for (int d = 0; d < b; ++d) {
            if ((task.id + d) % 9 == 0) {
              pooled.declined_worker_ids.push_back(
                  workload.workers[static_cast<size_t>(
                                       (task.id + 3 * d) %
                                       static_cast<int>(
                                           workload.workers.size()))]
                      .id);
            }
          }
          batch.tasks.push_back(std::move(pooled));
        }
      }
      for (size_t w = 0; w < workload.workers.size(); ++w) {
        // Churn: each batch a different ~1/5 of the fleet is offline, so
        // between consecutive batches workers both leave and (re)join.
        if ((static_cast<int>(w) + b) % 5 == 0) continue;
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
      batches.push_back(std::move(batch));
    }
    return batches;
  }

  static void ExpectSamePlan(const AssignmentPlan& a,
                             const AssignmentPlan& b) {
    ASSERT_EQ(a.pairs.size(), b.pairs.size());
    for (size_t i = 0; i < a.pairs.size(); ++i) {
      EXPECT_EQ(a.pairs[i].task_index, b.pairs[i].task_index);
      EXPECT_EQ(a.pairs[i].worker_index, b.pairs[i].worker_index);
      // Bit-identical, not approximately equal: the incremental path must
      // replay exactly the cold arithmetic on every surviving pair.
      EXPECT_EQ(a.pairs[i].expected_detour_km, b.pairs[i].expected_detour_km);
    }
  }
};

TEST_P(IncrementalPlanParityTest, PpiIndexedAndIncrementalBitIdentical) {
  // PPI has no dense path; its table-level dense oracle is
  // TableMatchesGenerateCandidatesOnRandomBatches above.
  std::vector<Batch> batches = BuildBatches(GetParam());
  PpiConfig config;
  for (int threads : {1, 4}) {
    SetParallelThreadCount(threads);
    IncrementalCandidateEngine engine;
    bool any = false;
    for (const Batch& batch : batches) {
      AssignmentPlan indexed =
          PpiAssign(batch.tasks, batch.workers, batch.now, config);
      AssignmentPlan incremental = PpiAssign(batch.tasks, batch.workers,
                                             batch.now, config, &engine);
      ExpectSamePlan(indexed, incremental);
      any = any || !indexed.pairs.empty();
    }
    EXPECT_TRUE(any);
  }
  SetParallelThreadCount(0);
}

TEST_P(IncrementalPlanParityTest, KmColdAndIncrementalBitIdentical) {
  std::vector<Batch> batches = BuildBatches(GetParam());
  for (int threads : {1, 4}) {
    SetParallelThreadCount(threads);
    IncrementalCandidateEngine engine;
    bool any = false;
    for (const Batch& batch : batches) {
      AssignmentPlan dense = KmAssign(batch.tasks, batch.workers, batch.now,
                                      /*match_radius_km=*/1.0,
                                      /*weight_floor_km=*/1e-3,
                                      /*use_spatial_index=*/false);
      AssignmentPlan indexed =
          KmAssign(batch.tasks, batch.workers, batch.now, 1.0, 1e-3, true);
      AssignmentPlan incremental = KmAssign(batch.tasks, batch.workers,
                                            batch.now, 1.0, 1e-3, true,
                                            &engine);
      ExpectSamePlan(dense, indexed);
      ExpectSamePlan(dense, incremental);
      any = any || !dense.pairs.empty();
    }
    EXPECT_TRUE(any);
  }
  SetParallelThreadCount(0);
}

TEST_P(IncrementalPlanParityTest, GgpsoColdAndIncrementalBitIdentical) {
  std::vector<Batch> batches = BuildBatches(GetParam());
  GgpsoConfig config;
  config.generations = 15;
  config.population = 12;
  for (int threads : {1, 4}) {
    SetParallelThreadCount(threads);
    IncrementalCandidateEngine engine;
    bool any = false;
    for (const Batch& batch : batches) {
      AssignmentPlan cold =
          GgpsoAssign(batch.tasks, batch.workers, batch.now, config);
      AssignmentPlan incremental =
          GgpsoAssign(batch.tasks, batch.workers, batch.now, config, &engine);
      ExpectSamePlan(cold, incremental);
      any = any || !cold.pairs.empty();
    }
    EXPECT_TRUE(any);
  }
  SetParallelThreadCount(0);
}

TEST_P(IncrementalPlanParityTest, MethodsSharingAnEngineHitTheCache) {
  // The fig-7 pipeline shape: several methods replay the same batch
  // instants against one pipeline-owned engine. The first method pays the
  // evaluations; the later ones must see a positive cache hit rate.
  std::vector<Batch> batches = BuildBatches(GetParam());
  IncrementalCandidateEngine engine;
  CandidateGenStats ppi_stats;
  for (const Batch& batch : batches) {
    (void)KmAssign(batch.tasks, batch.workers, batch.now, 1.0, 1e-3, true,
                   &engine);
  }
  for (const Batch& batch : batches) {
    auto table = engine.BuildTable(batch.tasks, batch.workers, 1.0,
                                   batch.now, &ppi_stats);
    (void)table;
  }
  EXPECT_GT(ppi_stats.cache_hits, 0);
  EXPECT_EQ(ppi_stats.evaluated, 0);  // Identical replay: all hits.
}

INSTANTIATE_TEST_SUITE_P(Workloads, IncrementalPlanParityTest,
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
