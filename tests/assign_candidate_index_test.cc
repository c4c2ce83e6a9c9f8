#include "assign/candidate_index.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "assign/candidates.h"
#include "assign/ggpso.h"
#include "assign/km_assigner.h"
#include "assign/ppi.h"
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
        if (info.b_count == 0 && !info.stage3_feasible) continue;
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
  // The simulator purges deadline <= now before assignment, so a task
  // expiring exactly on the batch tick must never be assigned: the index
  // query, the dense and indexed tables and every plan must agree that it
  // has no candidates, or an expire-then-assign on the same tick would be
  // counted twice.
  const std::vector<CandidateWorker> workers = {
      MakeWorker(0, {{{1.0, 1.0}, 10.0}}, {1.0, 1.0}, 4.0, 0.5, 0.5)};
  const std::vector<SpatialTask> tasks = {
      MakeTask(0, {1.0, 1.0}, /*deadline=*/5.0)};
  const double now = 5.0;  // deadline == now: expired (Def. 1, strict <).
  CandidateIndex index(workers);
  EXPECT_LT(index.PruneRadius(tasks[0], 0.5, now), 0.0);
  std::vector<int> hits;
  index.QueryWorkers(tasks[0].location, index.PruneRadius(tasks[0], 0.5, now),
                     hits);
  EXPECT_TRUE(hits.empty());
  EXPECT_TRUE(GenerateCandidates(tasks, workers, 0.5, now, nullptr)[0].empty());
  EXPECT_TRUE(GenerateCandidates(tasks, workers, 0.5, now, &index)[0].empty());
  for (const AssignmentPlan& plan :
       {KmAssign(tasks, workers, now, 0.5),
        PpiAssign(tasks, workers, now, PpiConfig{}),
        GgpsoAssign(tasks, workers, now, GgpsoConfig{})}) {
    EXPECT_TRUE(plan.pairs.empty());
  }
}

TEST(CandidateIndexTest, KmIndexedMatchesDenseAtRoundedTie) {
  // The worker sits at (1, 2^-26) from the task: Distance is exactly 1.0,
  // DistanceSquared is 1 + 2^-52. With a detour budget of 2 the Theorem-2
  // bound is 1.0, so stage 3 accepts the pair; fl(1 + a) == 1 for both
  // radii, so the prune radius is 1.0 too. The index must keep the worker.
  const geo::Point tie{1.0, std::ldexp(1.0, -26)};
  const std::vector<CandidateWorker> workers = {
      MakeWorker(0, {{tie, 10.0}}, tie, /*detour_km=*/2.0, /*speed=*/1.0,
                 0.5)};
  const std::vector<SpatialTask> tasks = {
      MakeTask(0, {0.0, 0.0}, /*deadline=*/60.0)};
  for (double a : {0.0, 1e-20}) {
    SCOPED_TRACE(::testing::Message() << "a = " << a);
    AssignmentPlan dense = KmAssign(tasks, workers, /*now_min=*/0.0, a,
                                    /*weight_floor_km=*/1e-3,
                                    /*use_spatial_index=*/false);
    AssignmentPlan indexed = KmAssign(tasks, workers, 0.0, a, 1e-3, true);
    ASSERT_EQ(dense.pairs.size(), 1u);
    ASSERT_EQ(indexed.pairs.size(), 1u);
    EXPECT_EQ(indexed.pairs[0].worker_index, dense.pairs[0].worker_index);
    EXPECT_EQ(indexed.pairs[0].expected_detour_km,
              dense.pairs[0].expected_detour_km);
  }
}

/// A coordinate on the 1/8 km grid, in [0, hi].
double Dyadic(tamp::Rng& rng, int hi_eighths) {
  return static_cast<double>(rng.UniformInt(0, hi_eighths)) / 8.0;
}

/// A point at a Theorem-2 boundary of `task` for a worker whose bound is
/// `bound`: exactly at dis == bound, exactly at dis + a == bound, or at a
/// rounded tie (bound, bound * 2^-26), where DistanceSquared lies above
/// bound^2 while Distance rounds to bound. Axis-aligned offsets of dyadic
/// values keep the first two exact. Returns false when the rounded tie
/// does not exist for this bound (it needs a significand below ~1.22).
bool BoundaryPoint(tamp::Rng& rng, const SpatialTask& task, double bound,
                   double a, geo::Point* out) {
  const double sx = rng.Bernoulli(0.5) ? 1.0 : -1.0;
  const double sy = rng.Bernoulli(0.5) ? 1.0 : -1.0;
  const geo::Point c = task.location;
  switch (rng.UniformInt(0, 2)) {
    case 0:
      *out = rng.Bernoulli(0.5) ? geo::Point{c.x + sx * bound, c.y}
                                : geo::Point{c.x, c.y + sy * bound};
      return true;
    case 1:
      if (bound < a) return false;
      *out = {c.x + sx * (bound - a), c.y};
      return true;
    default:
      *out = {c.x + sx * bound, c.y + sy * std::ldexp(bound, -26)};
      return geo::Distance(*out, c) == bound &&
             geo::DistanceSquared(*out, c) > bound * bound;
  }
}

TEST(CandidateIndexTest, FuzzTheoremTwoPruneAtExactBoundaries) {
  // Seeded fuzz of the prune on a dyadic grid: coordinates, budgets,
  // speeds and deadlines are multiples of 1/8, so boundary distances are
  // exact and ties land exactly on the closed inequalities. Half the
  // batches give every worker the same budget and speed, so each worker's
  // bound is the batch bound and a tie lands exactly on PruneRadius. The
  // indexed table must equal the dense oracle row for row, and the work
  // accounting must cover every dense pair.
  tamp::Rng rng(20260417);
  int rounded_ties = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const bool shared_bound = trial % 2 == 0;
    const double now = Dyadic(rng, 80);
    std::vector<SpatialTask> tasks;
    for (int i = 0; i < 12; ++i) {
      // Some tasks expire on the tick or before it.
      tasks.push_back(MakeTask(
          i, {Dyadic(rng, 200), Dyadic(rng, 96)},
          now + static_cast<double>(rng.UniformInt(-4, 160)) / 8.0));
    }
    const double shared_detour = Dyadic(rng, 48) + 0.5;
    const double shared_speed = Dyadic(rng, 8) + 0.125;
    for (double a : {0.0, 1e-20, 0.5}) {
      std::vector<CandidateWorker> workers;
      for (int i = 0; i < 16; ++i) {
        CandidateWorker w = MakeWorker(
            i, {}, {Dyadic(rng, 200), Dyadic(rng, 96)},
            shared_bound ? shared_detour : Dyadic(rng, 48) + 0.5,
            shared_bound ? shared_speed : Dyadic(rng, 8) + 0.125, 0.5);
        const int num_points = static_cast<int>(rng.UniformInt(0, 4));
        for (int p = 0; p <= num_points; ++p) {
          // The last slot is the current location.
          geo::Point loc{Dyadic(rng, 200), Dyadic(rng, 96)};
          const SpatialTask& task =
              tasks[static_cast<size_t>(rng.UniformInt(0, 11))];
          const double bound =
              std::min(w.detour_budget_km / 2.0,
                       w.speed_kmpm * (task.deadline_min - now));
          geo::Point boundary;
          if (bound >= 0.0 && rng.Bernoulli(0.7) &&
              BoundaryPoint(rng, task, bound, a, &boundary)) {
            loc = boundary;
            if (geo::DistanceSquared(loc, task.location) > bound * bound) {
              ++rounded_ties;
            }
          }
          if (p < num_points) {
            w.predicted.push_back({loc, now + 10.0 * (p + 1)});
          } else {
            w.current_location = loc;
          }
        }
        workers.push_back(std::move(w));
      }
      CandidateIndex index(workers);
      for (int threads : {1, 4}) {
        SCOPED_TRACE(::testing::Message()
                     << "trial " << trial << ", a = " << a << ", "
                     << threads << " threads");
        SetParallelThreadCount(threads);
        CandidateGenStats stats;
        ExpectSameTable(
            GenerateCandidates(tasks, workers, a, now, nullptr),
            GenerateCandidates(tasks, workers, a, now, &index, &stats));
        EXPECT_EQ(stats.evaluated + stats.pruned,
                  static_cast<int64_t>(tasks.size() * workers.size()));
      }
    }
  }
  SetParallelThreadCount(0);
  EXPECT_GT(rounded_ties, 0);  // The rounded-tie family actually ran.
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
  // The dense T x W sweep is the oracle of the indexed candidate source
  // at workload scale. PPI and GGPSO consume this table
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
