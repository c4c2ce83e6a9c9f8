#include "assign/ppi.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "assign/candidates.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "matching/hungarian.h"

namespace tamp::assign {
namespace {

SpatialTask MakeTask(int id, geo::Point loc, double deadline = 1000.0) {
  SpatialTask t;
  t.id = id;
  t.location = loc;
  t.deadline_min = deadline;
  return t;
}

CandidateWorker MakeWorker(int id, std::vector<geo::TimedPoint> predicted,
                           double mr, double detour_km = 2.0) {
  CandidateWorker w;
  w.id = id;
  w.predicted = std::move(predicted);
  w.detour_budget_km = detour_km;
  w.speed_kmpm = 1.0;
  w.matching_rate = mr;
  return w;
}

void ExpectDisjoint(const AssignmentPlan& plan) {
  std::set<int> tasks, workers;
  for (const auto& pair : plan.pairs) {
    EXPECT_TRUE(tasks.insert(pair.task_index).second);
    EXPECT_TRUE(workers.insert(pair.worker_index).second);
  }
}

std::map<int, int> WorkerOfTask(const AssignmentPlan& plan) {
  std::map<int, int> out;
  for (const auto& pair : plan.pairs) out[pair.task_index] = pair.worker_index;
  return out;
}

/// A staged scenario (a = 0, d = 2 so the Theorem-2 bound is 1):
///  - W0 (MR 0.6) has two predicted points near T0: |B| = 2, score 1.2
///    -> matched in stage 1.
///  - W1 (MR 0.5) has one point near T0: score 0.5 -> stage 2, but T0 is
///    already taken, so W1 stays free.
///  - W2 (MR 0.4) has one point near T1: score 0.4 -> matched in stage 2.
TEST(PpiAssignTest, StagesResolveInOrder) {
  std::vector<SpatialTask> tasks = {MakeTask(0, {0.0, 0.0}),
                                    MakeTask(1, {10.0, 0.0})};
  std::vector<CandidateWorker> workers = {
      MakeWorker(0, {{0.0, 0.0, 10.0}, {0.5, 0.0, 20.0}}, 0.6),
      MakeWorker(1, {{0.8, 0.0, 10.0}}, 0.5),
      MakeWorker(2, {{10.2, 0.0, 10.0}}, 0.4),
  };
  PpiConfig config;
  config.epsilon = 1;
  AssignmentPlan plan = PpiAssign(tasks, workers, 0.0, /*a=*/0.0, config);
  ExpectDisjoint(plan);
  auto assignment = WorkerOfTask(plan);
  ASSERT_EQ(assignment.size(), 2u);
  EXPECT_EQ(assignment[0], 0);  // Stage 1: the certain pair wins T0.
  EXPECT_EQ(assignment[1], 2);  // Stage 2.
}

TEST(PpiAssignTest, StageOnePrefersCertainOverCloser) {
  // W0 is *closer* to the task but uncertain (low MR, small |B|); W1 is a
  // bit farther but certain (score >= 1). Stage 1 runs first, so W1 gets
  // the task even though a pure nearest matching would pick W0.
  std::vector<SpatialTask> tasks = {MakeTask(0, {0.0, 0.0})};
  std::vector<CandidateWorker> workers = {
      MakeWorker(0, {{0.1, 0.0, 10.0}}, 0.3),
      MakeWorker(1, {{0.4, 0.0, 10.0}, {0.5, 0.0, 20.0}, {0.6, 0.0, 30.0}},
                 0.5),
  };
  AssignmentPlan plan = PpiAssign(tasks, workers, 0.0, /*a=*/0.0, PpiConfig{});
  auto assignment = WorkerOfTask(plan);
  ASSERT_EQ(assignment.size(), 1u);
  EXPECT_EQ(assignment[0], 1);
}

TEST(PpiAssignTest, StageThreeCatchesTheoremTwoRejects) {
  // With a = 0.6 and bound 1: the worker's best distance 0.8 fails the
  // Theorem-2 test (0.8 + 0.6 > 1) but passes stage 3 (0.8 <= 1).
  std::vector<SpatialTask> tasks = {MakeTask(0, {0.0, 0.0})};
  std::vector<CandidateWorker> workers = {
      MakeWorker(0, {{0.8, 0.0, 10.0}}, 0.9)};
  AssignmentPlan plan = PpiAssign(tasks, workers, 0.0, /*a=*/0.6, PpiConfig{});
  ASSERT_EQ(plan.pairs.size(), 1u);
}

TEST(PpiAssignTest, InfeasiblePairsStayUnassigned) {
  std::vector<SpatialTask> tasks = {MakeTask(0, {50.0, 50.0})};
  std::vector<CandidateWorker> workers = {
      MakeWorker(0, {{0.0, 0.0, 10.0}}, 0.9)};
  AssignmentPlan plan = PpiAssign(tasks, workers, 0.0, /*a=*/0.5, PpiConfig{});
  EXPECT_TRUE(plan.pairs.empty());
}

TEST(PpiAssignTest, EmptyInputs) {
  PpiConfig config;
  EXPECT_TRUE(PpiAssign({}, {MakeWorker(0, {}, 0.5)}, 0.0, 0.5, config)
                  .pairs.empty());
  EXPECT_TRUE(
      PpiAssign({MakeTask(0, {0, 0})}, {}, 0.0, 0.5, config).pairs.empty());
}

TEST(PpiAssignTest, MoreTasksThanWorkers) {
  std::vector<SpatialTask> tasks;
  for (int i = 0; i < 5; ++i) {
    tasks.push_back(MakeTask(i, {static_cast<double>(i), 0.0}));
  }
  std::vector<CandidateWorker> workers = {
      MakeWorker(0, {{0.0, 0.0, 10.0}}, 0.8),
      MakeWorker(1, {{4.0, 0.0, 10.0}}, 0.8),
  };
  AssignmentPlan plan = PpiAssign(tasks, workers, 0.0, /*a=*/0.0, PpiConfig{});
  ExpectDisjoint(plan);
  EXPECT_EQ(plan.pairs.size(), 2u);
}

TEST(PpiAssignTest, EpsilonBatchingDoesNotDropPairs) {
  // Many uncertain pairs: whatever epsilon, all feasible tasks must end up
  // assigned (one worker each).
  std::vector<SpatialTask> tasks;
  std::vector<CandidateWorker> workers;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back(MakeTask(i, {static_cast<double>(2 * i), 0.0}));
    workers.push_back(MakeWorker(
        i, {{2.0 * i + 0.3, 0.0, 10.0}}, 0.3 + 0.05 * i));
  }
  for (int epsilon : {1, 2, 3, 10}) {
    PpiConfig config;
    config.epsilon = epsilon;
    AssignmentPlan plan = PpiAssign(tasks, workers, 0.0, /*a=*/0.0, config);
    ExpectDisjoint(plan);
    EXPECT_EQ(plan.pairs.size(), 6u) << "epsilon=" << epsilon;
  }
}

TEST(PpiAssignTest, RandomInstancesProduceValidPlans) {
  tamp::Rng rng(37);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<SpatialTask> tasks;
    std::vector<CandidateWorker> workers;
    int nt = 3 + static_cast<int>(rng.UniformInt(0, 7));
    int nw = 3 + static_cast<int>(rng.UniformInt(0, 7));
    for (int i = 0; i < nt; ++i) {
      tasks.push_back(MakeTask(i, {rng.Uniform(0, 10), rng.Uniform(0, 10)},
                               rng.Uniform(5, 60)));
    }
    for (int i = 0; i < nw; ++i) {
      std::vector<geo::TimedPoint> pred;
      for (int p = 0; p < 4; ++p) {
        pred.push_back(
            {{rng.Uniform(0, 10), rng.Uniform(0, 10)}, 10.0 * (p + 1)});
      }
      workers.push_back(MakeWorker(i, pred, rng.Uniform01(),
                                   rng.Uniform(1.0, 6.0)));
    }
    PpiConfig config;
    config.epsilon = 2;
    AssignmentPlan plan = PpiAssign(tasks, workers, 0.0, /*a=*/0.5, config);
    ExpectDisjoint(plan);
    for (const auto& pair : plan.pairs) {
      EXPECT_GE(pair.task_index, 0);
      EXPECT_LT(pair.task_index, nt);
      EXPECT_GE(pair.worker_index, 0);
      EXPECT_LT(pair.worker_index, nw);
    }
  }
}

/// Algorithm 4 written out directly, sharing no code with PpiAssign's
/// candidate graph, shard plan or sharded solve: a dense EvaluateCandidate
/// table, every stage and every epsilon flush solved by one global
/// matching::MaxWeightMatching over the whole batch, and each committed
/// pair's detour found by a linear scan of the solved edges.
AssignmentPlan OraclePpi(const std::vector<SpatialTask>& tasks,
                         const std::vector<CandidateWorker>& workers,
                         double now, double a, const PpiConfig& config) {
  struct Row {
    int task;
    int worker;
    CandidateInfo info;
  };
  const int num_tasks = static_cast<int>(tasks.size());
  const int num_workers = static_cast<int>(workers.size());
  std::vector<Row> rows;
  for (int t = 0; t < num_tasks; ++t) {
    for (int w = 0; w < num_workers; ++w) {
      const CandidateInfo info = EvaluateCandidate(
          tasks[static_cast<size_t>(t)], workers[static_cast<size_t>(w)], a,
          now);
      if (info.b_count > 0 || info.stage3_feasible) rows.push_back({t, w, info});
    }
  }
  std::vector<char> task_done(tasks.size(), 0);
  std::vector<char> worker_done(workers.size(), 0);
  AssignmentPlan plan;
  auto solve = [&](const std::vector<const Row*>& solved, bool use_min_dis) {
    auto detour = [&](const Row& r) {
      return use_min_dis ? r.info.min_dis : r.info.min_b;
    };
    std::vector<matching::Edge> edges;
    for (const Row* r : solved) {
      edges.push_back(
          {r->task, r->worker, 1.0 / (detour(*r) + config.weight_floor_km)});
    }
    if (edges.empty()) return;
    const matching::MatchResult result =
        matching::MaxWeightMatching(num_tasks, num_workers, edges);
    for (auto [t, w] : result.pairs) {
      double km = -1.0;
      for (const Row* r : solved) {
        if (r->task == t && r->worker == w) km = detour(*r);
      }
      task_done[static_cast<size_t>(t)] = 1;
      worker_done[static_cast<size_t>(w)] = 1;
      plan.pairs.push_back({t, w, km});
    }
  };
  auto done = [&](const Row& r) {
    return task_done[static_cast<size_t>(r.task)] ||
           worker_done[static_cast<size_t>(r.worker)];
  };

  // Stage 1: |B| * MR >= 1; the other B-pairs wait for stage 2.
  std::vector<const Row*> certain;
  std::vector<std::pair<const Row*, double>> pending;
  for (const Row& r : rows) {
    if (r.info.b_count == 0) continue;
    const double score =
        r.info.b_count * workers[static_cast<size_t>(r.worker)].matching_rate;
    if (score >= 1.0) {
      certain.push_back(&r);
    } else {
      pending.emplace_back(&r, score);
    }
  }
  solve(certain, false);
  // Stage 2: descending score, epsilon pairs per solve.
  std::stable_sort(pending.begin(), pending.end(),
                   [](const auto& x, const auto& y) {
                     return x.second > y.second;
                   });
  std::vector<const Row*> batch;
  auto flush = [&]() {
    std::vector<const Row*> live;
    for (const Row* r : batch) {
      if (!done(*r)) live.push_back(r);
    }
    solve(live, false);
    batch.clear();
  };
  for (const auto& [r, score] : pending) {
    if (done(*r)) continue;
    batch.push_back(r);
    if (static_cast<int>(batch.size()) == config.epsilon) flush();
  }
  flush();
  // Stage 3: every remaining stage-3-feasible pair, on dis^min.
  std::vector<const Row*> fallback;
  for (const Row& r : rows) {
    if (!done(r) && r.info.stage3_feasible) fallback.push_back(&r);
  }
  solve(fallback, true);
  return plan;
}

TEST(PpiAssignTest, MatchesTheGlobalSolveOracleAtEveryThreadCount) {
  // Random batches of several far-apart clusters, so the candidate graph
  // has several components; expired tasks and workers without predictions
  // are mixed in. The larger batches cross the candidate-generation and
  // shard-solve fan-out crossovers, so both the inline and the pooled
  // paths are compared. PpiAssign's plan must equal the oracle's bitwise.
  tamp::Rng rng(2210);
  int pairs = 0;
  for (int trial = 0; trial < 12; ++trial) {
    // Every third batch is fleet-like: six clusters of ~30 tasks and ~25
    // workers, ~30k dense pairs.
    const bool large = trial % 3 == 0;
    const int clusters = large ? 6 : 2 + static_cast<int>(rng.UniformInt(0, 4));
    const int scale = large ? 6 : 1;
    std::vector<SpatialTask> tasks;
    std::vector<CandidateWorker> workers;
    const double now = rng.Uniform(0.0, 20.0);
    for (int c = 0; c < clusters; ++c) {
      const geo::Point center{50.0 * c, 30.0 * (c % 2)};
      auto near = [&](double spread) {
        return geo::Point{center.x + rng.Uniform(-spread, spread),
                          center.y + rng.Uniform(-spread, spread)};
      };
      const int nt = scale * (2 + static_cast<int>(rng.UniformInt(0, 6)));
      const int nw = scale * (2 + static_cast<int>(rng.UniformInt(0, 5)));
      for (int i = 0; i < nt; ++i) {
        // About one task in eight has expired by `now`.
        const double deadline = rng.Bernoulli(0.125)
                                    ? now - rng.Uniform(0.0, 5.0)
                                    : now + rng.Uniform(1.0, 40.0);
        tasks.push_back(MakeTask(static_cast<int>(tasks.size()), near(2.0),
                                 deadline));
      }
      for (int i = 0; i < nw; ++i) {
        std::vector<geo::TimedPoint> pred;
        const int steps = static_cast<int>(rng.UniformInt(0, 5));
        for (int p = 0; p < steps; ++p) {
          pred.push_back({near(2.0), now + 10.0 * (p + 1)});
        }
        CandidateWorker w = MakeWorker(static_cast<int>(workers.size()),
                                       std::move(pred), rng.Uniform(0.1, 1.0),
                                       rng.Uniform(1.0, 6.0));
        w.current_location = near(2.0);
        w.speed_kmpm = rng.Uniform(0.2, 1.0);
        workers.push_back(std::move(w));
      }
    }
    // Interleave the clusters' members across the batch indices.
    rng.Shuffle(tasks);
    rng.Shuffle(workers);
    const double a = trial % 2 == 0 ? 0.0 : rng.Uniform(0.1, 0.6);
    for (int epsilon : {1, 2, 5}) {
      PpiConfig config;
      config.epsilon = epsilon;
      const AssignmentPlan oracle = OraclePpi(tasks, workers, now, a, config);
      pairs += static_cast<int>(oracle.pairs.size());
      for (int threads : {1, 2, 4, 8}) {
        SCOPED_TRACE(::testing::Message()
                     << "trial " << trial << ", epsilon " << epsilon << ", "
                     << threads << " threads");
        SetParallelThreadCount(threads);
        const AssignmentPlan plan = PpiAssign(tasks, workers, now, a, config);
        ASSERT_EQ(plan.pairs.size(), oracle.pairs.size());
        for (size_t i = 0; i < plan.pairs.size(); ++i) {
          EXPECT_EQ(plan.pairs[i].task_index, oracle.pairs[i].task_index);
          EXPECT_EQ(plan.pairs[i].worker_index, oracle.pairs[i].worker_index);
          EXPECT_EQ(plan.pairs[i].expected_detour_km,
                    oracle.pairs[i].expected_detour_km);
        }
      }
    }
  }
  SetParallelThreadCount(0);
  EXPECT_GT(pairs, 100);  // The batches do get assigned.
}

}  // namespace
}  // namespace tamp::assign
