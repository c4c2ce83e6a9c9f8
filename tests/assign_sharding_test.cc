#include "assign/sharding.h"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "assign/km_assigner.h"
#include "common/obs/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "data/workload.h"
#include "matching/hungarian.h"
#include "matching_oracle.h"

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

/// Batch vectors whose ids equal their indices — enough for plan-structure
/// tests that never evaluate geometry.
void IdentityBatch(int num_tasks, int num_workers,
                   std::vector<SpatialTask>* tasks,
                   std::vector<CandidateWorker>* workers) {
  tasks->clear();
  workers->clear();
  for (int t = 0; t < num_tasks; ++t) {
    tasks->push_back(MakeTask(t, {0.0, 0.0}, 100.0));
  }
  for (int w = 0; w < num_workers; ++w) {
    workers->push_back(MakeWorker(w, {}, {0.0, 0.0}, 4.0, 0.5, 0.5));
  }
}

/// A candidate table holding exactly the given (task, worker) rows.
std::vector<std::vector<TaskCandidate>> TableFromRows(
    int num_tasks, const std::vector<std::pair<int, int>>& rows) {
  std::vector<std::vector<TaskCandidate>> table(
      static_cast<size_t>(num_tasks));
  for (auto [t, w] : rows) {
    TaskCandidate tc;
    tc.worker = w;
    tc.stage3_feasible = true;
    table[static_cast<size_t>(t)].push_back(tc);
  }
  for (auto& row : table) {
    std::sort(row.begin(), row.end(),
              [](const TaskCandidate& a, const TaskCandidate& b) {
                return a.worker < b.worker;
              });
  }
  return table;
}

TEST(ShardPlanTest, ComponentsMembershipAndCountersOnHandBuiltTable) {
  // t0-w0, t0-w1, t1-w1 form one component; t2-w3 a second; t3 has no rows
  // and w2/w4 are never referenced, so all three stay unsharded.
  std::vector<SpatialTask> tasks;
  std::vector<CandidateWorker> workers;
  IdentityBatch(4, 5, &tasks, &workers);
  auto table = TableFromRows(4, {{0, 0}, {0, 1}, {1, 1}, {2, 3}});

  obs::Counter& count_counter =
      obs::MetricsRegistry::Global().GetCounter("assign.shard_count");
  const int64_t count_before = count_counter.value();
  ShardPlan plan = BuildShardPlan(table, tasks, workers);
  EXPECT_EQ(count_counter.value() - count_before, 2);

  ASSERT_EQ(plan.shards.size(), 2u);
  // LPT: the 3-row component costs 3*4=12, the 1-row one 1*2=2.
  EXPECT_EQ(plan.shards[0].tasks, (std::vector<int>{0, 1}));
  EXPECT_EQ(plan.shards[0].workers, (std::vector<int>{0, 1}));
  EXPECT_EQ(plan.shards[0].rows, 3);
  EXPECT_EQ(plan.shards[0].cost, 12);
  EXPECT_EQ(plan.shards[1].tasks, (std::vector<int>{2}));
  EXPECT_EQ(plan.shards[1].workers, (std::vector<int>{3}));
  EXPECT_EQ(plan.shards[1].rows, 1);
  EXPECT_EQ(plan.shard_of_task, (std::vector<int>{0, 0, 1, -1}));
  EXPECT_EQ(plan.shard_of_worker, (std::vector<int>{0, 0, -1, 1, -1}));
  EXPECT_EQ(plan.total_rows, 4);
  EXPECT_EQ(plan.max_rows, 3);
}

TEST(ShardPlanTest, LptOrdersShardsByCostDescending) {
  // First-appearing component is the cheap one; LPT must still put the
  // expensive one first.
  std::vector<SpatialTask> tasks;
  std::vector<CandidateWorker> workers;
  IdentityBatch(4, 4, &tasks, &workers);
  auto table =
      TableFromRows(4, {{0, 0}, {1, 1}, {1, 2}, {2, 1}, {3, 2}});
  ShardPlan plan = BuildShardPlan(table, tasks, workers);
  ASSERT_EQ(plan.shards.size(), 2u);
  EXPECT_GT(plan.shards[0].cost, plan.shards[1].cost);
  EXPECT_EQ(plan.shards[0].tasks, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(plan.shards[1].tasks, (std::vector<int>{0}));
  EXPECT_EQ(plan.shard_of_task, (std::vector<int>{1, 0, 0, 0}));
}

void ExpectSameMatch(const matching::MatchResult& a,
                     const matching::MatchResult& b) {
  ASSERT_EQ(a.pairs.size(), b.pairs.size());
  for (size_t i = 0; i < a.pairs.size(); ++i) {
    EXPECT_EQ(a.pairs[i], b.pairs[i]) << "pair " << i;
  }
  EXPECT_EQ(a.total_weight, b.total_weight);  // Bitwise, not approximate.
}

/// A valid matching of `edges`: every pair is a positive edge, no vertex
/// is used twice, pairs come in ascending left order, and total_weight is
/// the sum of the matched pairs' (duplicate-max) weights.
void ExpectValidMatching(const matching::MatchResult& result,
                         const std::vector<matching::Edge>& edges) {
  std::set<int> lefts, rights;
  double total = 0.0;
  for (size_t i = 0; i < result.pairs.size(); ++i) {
    const auto [l, r] = result.pairs[i];
    EXPECT_TRUE(lefts.insert(l).second) << "left " << l << " used twice";
    EXPECT_TRUE(rights.insert(r).second) << "right " << r << " used twice";
    if (i > 0) {
      EXPECT_LT(result.pairs[i - 1].first, l);
    }
    double weight = 0.0;
    for (const matching::Edge& e : edges) {
      if (e.left == l && e.right == r) weight = std::max(weight, e.weight);
    }
    EXPECT_GT(weight, 0.0) << "(" << l << ", " << r << ") is not an edge";
    total += weight;
  }
  EXPECT_NEAR(result.total_weight, total, 1e-9);
}

TEST(ShardedMatchingTest, BruteForceRandomGraphParityAtEveryThreadCount) {
  // The assigners' only solve, on random candidate graphs at 1/2/4/8
  // threads, against two oracles: the global KM, which it must match
  // bitwise (pairs and total) whenever the weights are continuous, and an
  // exhaustive search for the optimum on instances of at most 8 per side.
  // The families add sparse graphs (density <= 0.2), lopsided ones (2x8,
  // 8x2) and tied weights drawn from {1, 2, 3}; with ties only the total
  // and the matching's validity are asserted, since equal-weight optima
  // may pick different pairs. Duplicate edges (max wins) and non-positive
  // edges (dropped) are sprinkled in because the global matcher handles
  // both.
  struct Family {
    const char* name;
    int trials;
    int num_tasks;    // 0 = drawn from 1..max_side.
    int num_workers;  // 0 = drawn from 1..max_side.
    int max_side;
    double density_lo, density_hi;
    bool tied;
  };
  constexpr int kMaxBruteForceSide = 8;
  const Family families[] = {
      {"general", 25, 0, 0, 12, 0.05, 0.4, false},
      {"small", 25, 0, 0, 8, 0.05, 0.4, false},
      {"sparse", 20, 0, 0, 8, 0.02, 0.2, false},
      {"lopsided 2x8", 10, 2, 8, 8, 0.1, 0.6, false},
      {"lopsided 8x2", 10, 8, 2, 8, 0.1, 0.6, false},
      {"tied", 20, 0, 0, 8, 0.05, 0.5, true},
      {"tied 2x8", 10, 2, 8, 8, 0.1, 0.6, true},
      {"tied 8x2", 10, 8, 2, 8, 0.1, 0.6, true},
  };
  tamp::Rng rng(808);
  for (const Family& family : families) {
    for (int trial = 0; trial < family.trials; ++trial) {
      auto draw_side = [&](int fixed) {
        return fixed > 0 ? fixed
                         : 1 + static_cast<int>(
                                   rng.UniformInt(0, family.max_side - 1));
      };
      const int num_tasks = draw_side(family.num_tasks);
      const int num_workers = draw_side(family.num_workers);
      const double density = rng.Uniform(family.density_lo, family.density_hi);
      auto draw_weight = [&]() {
        return family.tied ? static_cast<double>(rng.UniformInt(1, 3))
                           : rng.Uniform(0.1, 5.0);
      };
      std::vector<matching::Edge> edges;
      std::vector<std::pair<int, int>> rows;
      for (int t = 0; t < num_tasks; ++t) {
        for (int w = 0; w < num_workers; ++w) {
          if (!rng.Bernoulli(density)) continue;
          edges.push_back({t, w, draw_weight()});
          rows.emplace_back(t, w);
          if (rng.Bernoulli(0.1)) {  // Duplicate: the max must win.
            edges.push_back({t, w, draw_weight()});
          }
        }
      }
      if (rng.Bernoulli(0.5) && !rows.empty()) {
        // A non-positive edge: both solvers drop it (no table row needed).
        edges.push_back({rows[0].first, rows[0].second, 0.0});
      }
      std::vector<SpatialTask> tasks;
      std::vector<CandidateWorker> workers;
      IdentityBatch(num_tasks, num_workers, &tasks, &workers);
      auto table = TableFromRows(num_tasks, rows);
      ShardPlan plan = BuildShardPlan(table, tasks, workers);

      const bool brute_force = num_tasks <= kMaxBruteForceSide &&
                               num_workers <= kMaxBruteForceSide;
      const double best =
          brute_force ? matching::BruteForceBest(num_tasks, num_workers, edges)
                      : 0.0;
      matching::MatchResult global =
          matching::MaxWeightMatching(num_tasks, num_workers, edges);
      for (int threads : {1, 2, 4, 8}) {
        SCOPED_TRACE(::testing::Message()
                     << family.name << " trial " << trial << ", " << threads
                     << " threads");
        SetParallelThreadCount(threads);
        matching::MatchResult sharded = ShardedMaxWeightMatching(
            num_tasks, num_workers, edges, plan);
        ExpectValidMatching(sharded, edges);
        if (brute_force) {
          EXPECT_NEAR(sharded.total_weight, best, 1e-9);
        }
        if (!family.tied) ExpectSameMatch(global, sharded);
      }
      SetParallelThreadCount(0);
    }
  }
}

TEST(ShardedMatchingTest, LargeComponentsMatchGlobalAtEveryThreadCount) {
  // Several components of 20-40 tasks and workers each, with members
  // interleaved across the batch, so every shard solve is long enough for
  // the pool threads to run them concurrently and the shard-local
  // renumbering is non-trivial. The sharded solve must equal the global KM
  // bitwise at every thread count.
  tamp::Rng rng(4242);
  for (int trial = 0; trial < 3; ++trial) {
    const int num_components = 6;
    std::vector<int> task_component, worker_component;
    for (int c = 0; c < num_components; ++c) {
      const int t = 20 + static_cast<int>(rng.UniformInt(0, 20));
      const int w = 20 + static_cast<int>(rng.UniformInt(0, 20));
      task_component.insert(task_component.end(), static_cast<size_t>(t), c);
      worker_component.insert(worker_component.end(), static_cast<size_t>(w),
                              c);
    }
    rng.Shuffle(task_component);
    rng.Shuffle(worker_component);
    const int num_tasks = static_cast<int>(task_component.size());
    const int num_workers = static_cast<int>(worker_component.size());
    std::vector<matching::Edge> edges;
    std::vector<std::pair<int, int>> rows;
    for (int t = 0; t < num_tasks; ++t) {
      for (int w = 0; w < num_workers; ++w) {
        if (task_component[static_cast<size_t>(t)] !=
                worker_component[static_cast<size_t>(w)] ||
            !rng.Bernoulli(0.3)) {
          continue;
        }
        edges.push_back({t, w, rng.Uniform(0.1, 5.0)});
        rows.emplace_back(t, w);
      }
    }
    std::vector<SpatialTask> tasks;
    std::vector<CandidateWorker> workers;
    IdentityBatch(num_tasks, num_workers, &tasks, &workers);
    auto table = TableFromRows(num_tasks, rows);
    ShardPlan plan = BuildShardPlan(table, tasks, workers);
    ASSERT_GE(plan.shards.size(), static_cast<size_t>(num_components));

    matching::MatchResult global =
        matching::MaxWeightMatching(num_tasks, num_workers, edges);
    for (int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE(::testing::Message()
                   << "trial " << trial << ", " << threads << " threads");
      SetParallelThreadCount(threads);
      ExpectSameMatch(global, ShardedMaxWeightMatching(num_tasks, num_workers,
                                                       edges, plan));
    }
    SetParallelThreadCount(0);
  }
}

TEST(ShardedMatchingTest, DegenerateInputsReturnEmptyWithoutSolving) {
  std::vector<SpatialTask> tasks;
  std::vector<CandidateWorker> workers;

  // Empty everything.
  IdentityBatch(0, 0, &tasks, &workers);
  ShardPlan empty_plan = BuildShardPlan({}, tasks, workers);
  EXPECT_TRUE(empty_plan.shards.empty());
  matching::MatchResult r = ShardedMaxWeightMatching(0, 0, {}, empty_plan);
  EXPECT_TRUE(r.pairs.empty());
  EXPECT_EQ(r.total_weight, 0.0);

  // Rows exist but every edge weight is non-positive: all shards end up
  // edgeless and the result is empty, exactly like the global matcher.
  IdentityBatch(2, 2, &tasks, &workers);
  auto table = TableFromRows(2, {{0, 0}, {1, 1}});
  ShardPlan plan = BuildShardPlan(table, tasks, workers);
  ASSERT_EQ(plan.shards.size(), 2u);
  std::vector<matching::Edge> filtered = {{0, 0, 0.0}, {1, 1, -1.0}};
  r = ShardedMaxWeightMatching(2, 2, filtered, plan);
  EXPECT_TRUE(r.pairs.empty());
  EXPECT_EQ(r.total_weight, 0.0);

  // 1xN: one task, several workers — a single-shard matching.
  IdentityBatch(1, 3, &tasks, &workers);
  auto one_row = TableFromRows(1, {{0, 0}, {0, 1}, {0, 2}});
  ShardPlan one_plan = BuildShardPlan(one_row, tasks, workers);
  std::vector<matching::Edge> one_edges = {
      {0, 0, 1.0}, {0, 1, 3.0}, {0, 2, 2.0}};
  matching::MatchResult one =
      ShardedMaxWeightMatching(1, 3, one_edges, one_plan);
  matching::MatchResult one_global = matching::MaxWeightMatching(1, 3,
                                                                 one_edges);
  ExpectSameMatch(one_global, one);
  ASSERT_EQ(one.pairs.size(), 1u);
  EXPECT_EQ(one.pairs[0], (std::pair<int, int>{0, 1}));
}

/// Workload-scale sharded-vs-global plan parity: KmAssign's production
/// path (per-component solve) against its global-solve oracle on Porto and
/// Gowalla batches at 1 and 4 threads. PPI has no global path; its stages
/// solve through the same ShardedMaxWeightMatching the tests above pin.
class ShardingPlanParityTest
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
          batch.tasks.push_back(task);
        }
      }
      for (size_t w = 0; w < workload.workers.size(); ++w) {
        // Churn: each batch a different ~1/5 of the fleet is offline, so
        // shard memberships change between batches.
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
      EXPECT_EQ(a.pairs[i].expected_detour_km, b.pairs[i].expected_detour_km);
    }
  }
};

TEST_P(ShardingPlanParityTest, KmShardedAndGlobalBitIdentical) {
  std::vector<Batch> batches = BuildBatches(GetParam());
  for (int threads : {1, 4}) {
    SetParallelThreadCount(threads);
    bool any = false;
    for (const Batch& batch : batches) {
      AssignmentPlan global =
          KmAssign(batch.tasks, batch.workers, batch.now,
                   /*match_radius_km=*/1.0, /*weight_floor_km=*/1e-3,
                   /*use_spatial_index=*/true, /*engine=*/nullptr,
                   /*shard_components=*/false);
      AssignmentPlan sharded =
          KmAssign(batch.tasks, batch.workers, batch.now, 1.0, 1e-3);
      ExpectSamePlan(global, sharded);
      any = any || !global.pairs.empty();
    }
    EXPECT_TRUE(any);
  }
  SetParallelThreadCount(0);
}

INSTANTIATE_TEST_SUITE_P(Workloads, ShardingPlanParityTest,
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
