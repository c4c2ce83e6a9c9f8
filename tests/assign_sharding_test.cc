#include "assign/sharding.h"

#include <algorithm>
#include <map>
#include <set>
#include <span>
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

/// A candidate graph holding exactly the given (task, worker) rows, each
/// with the given dis^min.
CandidateGraph GraphFromRows(
    int num_tasks, std::vector<std::pair<std::pair<int, int>, double>> rows) {
  std::sort(rows.begin(), rows.end());
  CandidateGraph graph;
  graph.offsets.assign(static_cast<size_t>(num_tasks) + 1, 0);
  for (const auto& [pair, min_dis] : rows) {
    TaskCandidate tc;
    tc.worker = pair.second;
    tc.min_dis = min_dis;
    tc.stage3_feasible = true;
    graph.rows.push_back(tc);
    ++graph.offsets[static_cast<size_t>(pair.first) + 1];
  }
  for (size_t t = 1; t < graph.offsets.size(); ++t) {
    graph.offsets[t] += graph.offsets[t - 1];
  }
  return graph;
}

void ExpectSamePlanLayout(const ShardPlan& a, const ShardPlan& b) {
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (size_t s = 0; s < a.shards.size(); ++s) {
    EXPECT_EQ(a.shards[s].first_task, b.shards[s].first_task);
    EXPECT_EQ(a.shards[s].num_tasks, b.shards[s].num_tasks);
    EXPECT_EQ(a.shards[s].first_worker, b.shards[s].first_worker);
    EXPECT_EQ(a.shards[s].num_workers, b.shards[s].num_workers);
    EXPECT_EQ(a.shards[s].rows, b.shards[s].rows);
    EXPECT_EQ(a.shards[s].cost, b.shards[s].cost);
  }
  EXPECT_EQ(a.member_tasks, b.member_tasks);
  EXPECT_EQ(a.member_workers, b.member_workers);
  EXPECT_EQ(a.shard_of_task, b.shard_of_task);
  EXPECT_EQ(a.shard_of_worker, b.shard_of_worker);
  EXPECT_EQ(a.local_of_task, b.local_of_task);
  EXPECT_EQ(a.local_of_worker, b.local_of_worker);
  EXPECT_EQ(a.total_rows, b.total_rows);
  EXPECT_EQ(a.max_rows, b.max_rows);
}

std::vector<int> Members(std::span<const int> members) {
  return {members.begin(), members.end()};
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
  // LPT: the 2 x 2 component of 3 rows costs more than the 1 x 1 one.
  EXPECT_EQ(Members(plan.TasksOf(0)), (std::vector<int>{0, 1}));
  EXPECT_EQ(Members(plan.WorkersOf(0)), (std::vector<int>{0, 1}));
  EXPECT_EQ(plan.shards[0].rows, 3);
  EXPECT_EQ(plan.shards[0].cost, 2 * 2 * 2);
  EXPECT_EQ(Members(plan.TasksOf(1)), (std::vector<int>{2}));
  EXPECT_EQ(Members(plan.WorkersOf(1)), (std::vector<int>{3}));
  EXPECT_EQ(plan.shards[1].rows, 1);
  EXPECT_EQ(plan.shards[1].cost, 1);
  EXPECT_EQ(plan.shard_of_task, (std::vector<int>{0, 0, 1, -1}));
  EXPECT_EQ(plan.shard_of_worker, (std::vector<int>{0, 0, -1, 1, -1}));
  EXPECT_EQ(plan.local_of_task, (std::vector<int>{0, 1, 0, -1}));
  EXPECT_EQ(plan.local_of_worker, (std::vector<int>{0, 1, -1, 0, -1}));
  EXPECT_EQ(plan.total_rows, 4);
  EXPECT_EQ(plan.max_rows, 3);
}

TEST(ShardPlanTest, LargeGraphPlanIsThreadInvariant) {
  // Enough rows for the concurrent union pass: ~400 interleaved
  // components of random size. The plan built at 2/4/8 threads must equal
  // the 1-thread plan field by field, and the table adapter must build the
  // same plan from the same rows.
  tamp::Rng rng(31337);
  const int num_components = 400;
  std::vector<int> task_component, worker_component;
  for (int c = 0; c < num_components; ++c) {
    task_component.insert(task_component.end(),
                          static_cast<size_t>(rng.UniformInt(1, 40)), c);
    worker_component.insert(worker_component.end(),
                            static_cast<size_t>(rng.UniformInt(1, 60)), c);
  }
  rng.Shuffle(task_component);
  rng.Shuffle(worker_component);
  const int num_tasks = static_cast<int>(task_component.size());
  const int num_workers = static_cast<int>(worker_component.size()) + 7;
  std::vector<std::vector<int>> workers_of(num_components);
  for (size_t w = 0; w < worker_component.size(); ++w) {
    workers_of[static_cast<size_t>(worker_component[w])].push_back(
        static_cast<int>(w));
  }
  std::vector<std::pair<std::pair<int, int>, double>> rows;
  std::vector<std::pair<int, int>> pairs;
  for (int t = 0; t < num_tasks; ++t) {
    for (int w : workers_of[static_cast<size_t>(
             task_component[static_cast<size_t>(t)])]) {
      if (!rng.Bernoulli(0.7)) continue;
      rows.push_back({{t, w}, rng.Uniform(0.0, 2.0)});
      pairs.emplace_back(t, w);
    }
  }
  ASSERT_GE(static_cast<int64_t>(rows.size()), kMinParallelPlanRows);
  const CandidateGraph graph = GraphFromRows(num_tasks, rows);
  SetParallelThreadCount(1);
  const ShardPlan serial = BuildShardPlan(graph, num_workers);
  EXPECT_GE(serial.shards.size(), static_cast<size_t>(num_components));
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    SetParallelThreadCount(threads);
    ExpectSamePlanLayout(serial, BuildShardPlan(graph, num_workers));
  }
  SetParallelThreadCount(0);
  std::vector<SpatialTask> tasks;
  std::vector<CandidateWorker> workers;
  IdentityBatch(num_tasks, num_workers, &tasks, &workers);
  ExpectSamePlanLayout(serial,
                       BuildShardPlan(TableFromRows(num_tasks, pairs), tasks,
                                      workers));
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
  EXPECT_EQ(Members(plan.TasksOf(0)), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(Members(plan.TasksOf(1)), (std::vector<int>{0}));
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

TEST(ShardedMatchingTest, KmFuzzSuiteAtEveryThreadCount) {
  // The KM fuzz suite (matching_oracle.h) through the assigners' solve:
  // one shard per connected component, each solved compacted and
  // rectangular, merged in ascending-left order. At 1/2/4/8 threads every
  // result is a valid matching with the global solve's optimal total, is
  // bitwise the 1-thread result, and on continuous weights is bitwise the
  // global solve.
  int instances = 0;
  for (const matching::FuzzInstance& inst :
       matching::KmFuzzInstances(20261019)) {
    SCOPED_TRACE(::testing::Message() << inst.family << " instance "
                                      << instances << ": " << inst.num_left
                                      << " x " << inst.num_right);
    ++instances;
    std::vector<std::pair<int, int>> rows;
    for (const matching::Edge& e : inst.edges) {
      if (e.weight > 0.0) rows.emplace_back(e.left, e.right);
    }
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    std::vector<SpatialTask> tasks;
    std::vector<CandidateWorker> workers;
    IdentityBatch(inst.num_left, inst.num_right, &tasks, &workers);
    const ShardPlan plan =
        BuildShardPlan(TableFromRows(inst.num_left, rows), tasks, workers);
    const matching::MatchResult global =
        matching::MaxWeightMatching(inst.num_left, inst.num_right, inst.edges);
    matching::MatchResult first;
    for (int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE(::testing::Message() << threads << " threads");
      SetParallelThreadCount(threads);
      const matching::MatchResult sharded = ShardedMaxWeightMatching(
          inst.num_left, inst.num_right, inst.edges, plan);
      ExpectValidMatching(sharded, inst.edges);
      EXPECT_NEAR(sharded.total_weight, global.total_weight, 1e-9);
      if (threads == 1) {
        first = sharded;
      } else {
        ExpectSameMatch(first, sharded);
      }
      if (!inst.tied) ExpectSameMatch(global, sharded);
    }
  }
  SetParallelThreadCount(0);
  EXPECT_GE(instances, 1000);
}

TEST(ShardedMatchingTest, KmFuzzSuiteThroughTheCandidateGraph) {
  // The same instances as KM's graph solve sees them: one row per
  // positive (task, worker) pair, its dis^min the pair's largest weight,
  // so every edge weighs 1 / (dis^min + floor) in both solves.
  // MatchCandidateGraph must give the global solve's total at 1/2/4/8
  // threads, bitwise the 1-thread result, and on continuous weights
  // bitwise the global solve, per-pair weights included.
  constexpr double kFloor = 1e-3;
  int instances = 0;
  for (const matching::FuzzInstance& inst :
       matching::KmFuzzInstances(20261020)) {
    SCOPED_TRACE(::testing::Message() << inst.family << " instance "
                                      << instances << ": " << inst.num_left
                                      << " x " << inst.num_right);
    ++instances;
    std::map<std::pair<int, int>, double> best;
    for (const matching::Edge& e : inst.edges) {
      if (e.weight <= 0.0) continue;
      double& w = best[{e.left, e.right}];
      w = std::max(w, e.weight);
    }
    std::vector<std::pair<std::pair<int, int>, double>> rows(best.begin(),
                                                             best.end());
    std::vector<matching::Edge> edges;
    for (const auto& [pair, min_dis] : rows) {
      edges.push_back({pair.first, pair.second, 1.0 / (min_dis + kFloor)});
    }
    const CandidateGraph graph = GraphFromRows(inst.num_left, rows);
    const ShardPlan plan = BuildShardPlan(graph, inst.num_right);
    const matching::MatchResult global =
        matching::MaxWeightMatching(inst.num_left, inst.num_right, edges);
    matching::MatchResult first;
    for (int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE(::testing::Message() << threads << " threads");
      SetParallelThreadCount(threads);
      const matching::MatchResult sharded =
          MatchCandidateGraph(graph, plan, kFloor);
      ExpectValidMatching(sharded, edges);
      EXPECT_NEAR(sharded.total_weight, global.total_weight, 1e-9);
      if (threads == 1) {
        first = sharded;
      } else {
        ExpectSameMatch(first, sharded);
      }
      if (!inst.tied) {
        ExpectSameMatch(global, sharded);
        EXPECT_EQ(global.weights, sharded.weights);
      }
    }
  }
  SetParallelThreadCount(0);
  EXPECT_GE(instances, 1000);
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
                   /*use_spatial_index=*/true, /*unused=*/nullptr,
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
