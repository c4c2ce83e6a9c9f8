#include "matching/hungarian.h"

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "matching_oracle.h"

namespace tamp::matching {
namespace {

void ExpectValidMatching(const MatchResult& result, int num_left,
                         int num_right) {
  std::set<int> lefts, rights;
  for (auto [l, r] : result.pairs) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, num_left);
    EXPECT_GE(r, 0);
    EXPECT_LT(r, num_right);
    EXPECT_TRUE(lefts.insert(l).second) << "duplicate left " << l;
    EXPECT_TRUE(rights.insert(r).second) << "duplicate right " << r;
  }
}

TEST(MinCostAssignmentTest, TwoByTwo) {
  auto result = MinCostAssignment({{1.0, 2.0}, {2.0, 1.0}});
  EXPECT_DOUBLE_EQ(result.total_cost, 2.0);
  EXPECT_EQ(result.col_of_row[0], 0);
  EXPECT_EQ(result.col_of_row[1], 1);
}

TEST(MinCostAssignmentTest, RectangularRowsLessThanCols) {
  auto result = MinCostAssignment({{5.0, 1.0, 9.0}});
  EXPECT_DOUBLE_EQ(result.total_cost, 1.0);
  EXPECT_EQ(result.col_of_row[0], 1);
}

TEST(MinCostAssignmentTest, ClassicExample) {
  // A well-known 3x3 instance with optimal cost 5 (1+3+1... verify):
  // rows choose (0,1)=2? Let's use a matrix with a known answer:
  //   [4 1 3]
  //   [2 0 5]
  //   [3 2 2]   optimum: 1 + 2 + 2 = 5.
  auto result = MinCostAssignment({{4, 1, 3}, {2, 0, 5}, {3, 2, 2}});
  EXPECT_DOUBLE_EQ(result.total_cost, 5.0);
}

TEST(MinCostAssignmentTest, ZeroRowMatrixIsADegenerateNoOp) {
  // A 0-row matrix returns empty without touching the scratch, so a later
  // solve through the same scratch still matches a fresh one.
  auto result = MinCostAssignment({});
  EXPECT_TRUE(result.col_of_row.empty());
  EXPECT_EQ(result.total_cost, 0.0);

  MatchingScratch scratch;
  std::vector<std::vector<double>> small = {
      {1.0, 4.0, 2.0}, {3.0, 1.0, 5.0}, {2.0, 2.0, 1.0}};
  (void)MinCostAssignment(small, &scratch);
  EXPECT_TRUE(MinCostAssignment({}, &scratch).col_of_row.empty());
  auto again = MinCostAssignment(small, &scratch);
  auto fresh = MinCostAssignment(small);
  EXPECT_EQ(again.col_of_row, fresh.col_of_row);
  EXPECT_EQ(again.total_cost, fresh.total_cost);
}

TEST(MaxWeightMatchingTest, EmptyInputs) {
  EXPECT_TRUE(MaxWeightMatching(0, 5, {}).pairs.empty());
  EXPECT_TRUE(MaxWeightMatching(5, 0, {}).pairs.empty());
  EXPECT_TRUE(MaxWeightMatching(3, 3, {}).pairs.empty());
}

TEST(MaxWeightMatchingTest, SingleEdge) {
  auto result = MaxWeightMatching(2, 2, {{0, 1, 3.5}});
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_EQ(result.pairs[0], std::make_pair(0, 1));
  EXPECT_DOUBLE_EQ(result.total_weight, 3.5);
}

TEST(MaxWeightMatchingTest, PrefersHeavierCombination) {
  // Greedy would take (0,0,10) then only (1,1,1) = 11; optimal is
  // (0,1,9) + (1,0,9) = 18.
  std::vector<Edge> edges = {{0, 0, 10.0}, {0, 1, 9.0}, {1, 0, 9.0},
                             {1, 1, 1.0}};
  auto result = MaxWeightMatching(2, 2, edges);
  EXPECT_DOUBLE_EQ(result.total_weight, 18.0);
  auto greedy = GreedyMatching(2, 2, edges);
  EXPECT_DOUBLE_EQ(greedy.total_weight, 11.0);
}

TEST(MaxWeightMatchingTest, NonPositiveEdgesIgnored) {
  auto result = MaxWeightMatching(2, 2, {{0, 0, 0.0}, {1, 1, -3.0}});
  EXPECT_TRUE(result.pairs.empty());
}

TEST(MaxWeightMatchingTest, DuplicateEdgesKeepMax) {
  auto result = MaxWeightMatching(1, 1, {{0, 0, 1.0}, {0, 0, 7.0}});
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_DOUBLE_EQ(result.total_weight, 7.0);
}

TEST(MaxWeightMatchingTest, LeavesVerticesUnmatchedWhenNoEdge) {
  // 3 tasks, 3 workers, but only task 0 has edges.
  auto result = MaxWeightMatching(3, 3, {{0, 2, 1.0}});
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_EQ(result.pairs[0], std::make_pair(0, 2));
}

TEST(MaxWeightMatchingTest, RectangularMoreLeftThanRight) {
  std::vector<Edge> edges = {{0, 0, 5.0}, {1, 0, 6.0}, {2, 0, 7.0}};
  auto result = MaxWeightMatching(3, 1, edges);
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_DOUBLE_EQ(result.total_weight, 7.0);
}

/// Property sweep: on random instances the KM result is a valid matching,
/// optimal (vs brute force), and >= the greedy total.
class MatchingRandomSweep
    : public ::testing::TestWithParam<std::tuple<int, int, uint64_t>> {};

TEST_P(MatchingRandomSweep, OptimalOnRandomInstances) {
  auto [num_left, num_right, seed] = GetParam();
  tamp::Rng rng(seed);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Edge> edges;
    for (int l = 0; l < num_left; ++l) {
      for (int r = 0; r < num_right; ++r) {
        if (rng.Bernoulli(0.6)) {
          edges.push_back({l, r, rng.Uniform(0.1, 10.0)});
        }
      }
    }
    auto result = MaxWeightMatching(num_left, num_right, edges);
    ExpectValidMatching(result, num_left, num_right);
    double brute = BruteForceBest(num_left, num_right, edges);
    EXPECT_NEAR(result.total_weight, brute, 1e-9);
    auto greedy = GreedyMatching(num_left, num_right, edges);
    EXPECT_LE(greedy.total_weight, result.total_weight + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, MatchingRandomSweep,
    ::testing::Values(std::make_tuple(2, 2, 1ULL), std::make_tuple(3, 3, 2ULL),
                      std::make_tuple(4, 4, 3ULL), std::make_tuple(5, 3, 4ULL),
                      std::make_tuple(3, 6, 5ULL),
                      std::make_tuple(6, 6, 6ULL)));

TEST(MatchingScratchTest, ReusedScratchMatchesFreshCalls) {
  // One scratch across a sequence of differently-sized solves must yield
  // exactly the per-call-allocation results (stale buffer contents from a
  // larger earlier solve must not leak into a smaller later one).
  tamp::Rng rng(321);
  MatchingScratch scratch;
  for (int trial = 0; trial < 30; ++trial) {
    const int num_left = static_cast<int>(rng.UniformInt(1, 8));
    const int num_right = static_cast<int>(rng.UniformInt(1, 8));
    std::vector<Edge> edges;
    for (int l = 0; l < num_left; ++l) {
      for (int r = 0; r < num_right; ++r) {
        if (rng.Bernoulli(0.5)) edges.push_back({l, r, rng.Uniform(0.1, 9.0)});
      }
    }
    auto fresh = MaxWeightMatching(num_left, num_right, edges);
    auto reused = MaxWeightMatching(num_left, num_right, edges, &scratch);
    EXPECT_EQ(reused.pairs, fresh.pairs);
    EXPECT_DOUBLE_EQ(reused.total_weight, fresh.total_weight);
  }
}

TEST(MatchingScratchTest, MinCostAssignmentWithScratch) {
  MatchingScratch scratch;
  std::vector<std::vector<double>> big = {
      {4, 1, 3, 9}, {2, 0, 5, 8}, {3, 2, 2, 7}, {1, 6, 4, 0}};
  auto big_fresh = MinCostAssignment(big);
  auto big_reused = MinCostAssignment(big, &scratch);
  EXPECT_EQ(big_reused.col_of_row, big_fresh.col_of_row);
  EXPECT_DOUBLE_EQ(big_reused.total_cost, big_fresh.total_cost);
  // Shrinking reuse after the larger solve.
  std::vector<std::vector<double>> small = {{4.0, 1.0}, {2.0, 3.0}};
  auto small_reused = MinCostAssignment(small, &scratch);
  EXPECT_EQ(small_reused.col_of_row, MinCostAssignment(small).col_of_row);
  EXPECT_DOUBLE_EQ(small_reused.total_cost, 3.0);
}

TEST(MatchingScratchTest, ShrinkThenGrowScratchReuseParity) {
  // A large solve leaves stale weight/cost cells in the scratch; a smaller
  // solve then reuses the buffers, and a regrown solve grows them again.
  // Every used cell must be written for the current instance — any stale
  // cell leaking through would change the optimum here, because all three
  // instances put different weights on overlapping (l, r) cells.
  MatchingScratch scratch;
  auto run_both = [&scratch](int num_left, int num_right,
                             const std::vector<Edge>& edges) {
    auto fresh = MaxWeightMatching(num_left, num_right, edges);
    auto reused = MaxWeightMatching(num_left, num_right, edges, &scratch);
    EXPECT_EQ(reused.pairs, fresh.pairs);
    EXPECT_DOUBLE_EQ(reused.total_weight, fresh.total_weight);
  };
  // Large 6x6 with heavy weights everywhere.
  std::vector<Edge> big;
  for (int l = 0; l < 6; ++l) {
    for (int r = 0; r < 6; ++r) {
      big.push_back({l, r, 5.0 + l + 0.3 * r});
    }
  }
  run_both(6, 6, big);
  // Shrink to 2x2 whose optimum (cross pairing) would be beaten by any
  // stale >= 5.0 cell surviving from the big solve.
  run_both(2, 2, {{0, 0, 1.0}, {0, 1, 2.0}, {1, 0, 2.5}, {1, 1, 1.2}});
  // Regrow to 4x4, sparse: rows 2-3 were untouched by the 2x2 solve and
  // must not resurrect the 6x6 weights.
  run_both(4, 4, {{0, 3, 1.0}, {1, 2, 2.0}, {2, 1, 3.0}, {3, 0, 4.0},
                  {2, 2, 0.5}});
  // Shrink all the way to the degenerate cases — a 0-row instance and an
  // all-filtered (non-positive weights) one. Neither may touch the scratch
  // left by the 4x4 solve...
  run_both(0, 3, {});
  run_both(3, 3, {{0, 0, 0.0}, {1, 2, -1.0}});
  // ...so regrowing afterwards still matches fresh solves.
  run_both(5, 5, {{0, 0, 2.0}, {1, 1, 1.5}, {2, 3, 4.0}, {4, 2, 0.7}});
}

/// The compacted problem MaxWeightMatching must solve, rebuilt without
/// its code: the vertices with a positive edge in ascending id order, the
/// smaller side as rows, duplicate edges at their max, and cost = (max
/// weight) - weight, row-major.
struct CompactProblem {
  size_t rows = 0;
  size_t cols = 0;
  std::vector<double> cost;
};

CompactProblem ExpectedCompactProblem(const std::vector<Edge>& edges) {
  std::vector<int> lefts, rights;
  double max_weight = 0.0;
  for (const Edge& e : edges) {
    if (e.weight <= 0.0) continue;
    lefts.push_back(e.left);
    rights.push_back(e.right);
    max_weight = std::max(max_weight, e.weight);
  }
  for (std::vector<int>* ids : {&lefts, &rights}) {
    std::sort(ids->begin(), ids->end());
    ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
  }
  const bool transposed = lefts.size() > rights.size();
  CompactProblem problem;
  problem.rows = std::min(lefts.size(), rights.size());
  problem.cols = std::max(lefts.size(), rights.size());
  std::vector<double> weight(problem.rows * problem.cols, 0.0);
  auto rank = [](const std::vector<int>& ids, int id) {
    return static_cast<size_t>(
        std::lower_bound(ids.begin(), ids.end(), id) - ids.begin());
  };
  for (const Edge& e : edges) {
    if (e.weight <= 0.0) continue;
    const size_t l = rank(lefts, e.left);
    const size_t r = rank(rights, e.right);
    double& cell = transposed ? weight[r * problem.cols + l]
                              : weight[l * problem.cols + r];
    cell = std::max(cell, e.weight);
  }
  for (double w : weight) problem.cost.push_back(max_weight - w);
  return problem;
}

/// Heaviest weight among the (l, r) edges; 0 when there is none.
double EdgeWeight(const std::vector<Edge>& edges, int l, int r) {
  double weight = 0.0;
  for (const Edge& e : edges) {
    if (e.left == l && e.right == r) weight = std::max(weight, e.weight);
  }
  return weight;
}

TEST(MaxWeightMatchingFuzzTest, CertificateCompactionOrderAndBruteForce) {
  // The independent oracles of the compacted rectangular solve, on every
  // fuzz instance, through one reused scratch:
  //   - the scratch holds exactly the compacted problem rebuilt above;
  //   - the KM dual certificate holds for it, and its dual objective
  //     equals the matching's weight (rows * max_weight - sum of
  //     potentials);
  //   - pairs are distinct positive edges in ascending-left order, and
  //     total_weight is their sum in that order, bitwise;
  //   - with at most 8 per side, the total is the exhaustive optimum.
  constexpr int kMaxBruteForceSide = 8;
  MatchingScratch scratch;
  int instances = 0, solved = 0, brute_forced = 0;
  for (const FuzzInstance& inst : KmFuzzInstances(20261019)) {
    SCOPED_TRACE(::testing::Message() << inst.family << " instance "
                                      << instances << ": " << inst.num_left
                                      << " x " << inst.num_right);
    ++instances;
    MatchResult result =
        MaxWeightMatching(inst.num_left, inst.num_right, inst.edges, &scratch);
    ExpectValidMatching(result, inst.num_left, inst.num_right);
    double total = 0.0;
    for (size_t i = 0; i < result.pairs.size(); ++i) {
      const auto [l, r] = result.pairs[i];
      if (i > 0) {
        EXPECT_LT(result.pairs[i - 1].first, l);
      }
      const double w = EdgeWeight(inst.edges, l, r);
      EXPECT_GT(w, 0.0) << "(" << l << ", " << r << ") is not an edge";
      total += w;
    }
    EXPECT_EQ(result.total_weight, total);  // Ascending-left sum, bitwise.

    const CompactProblem expected = ExpectedCompactProblem(inst.edges);
    if (expected.rows == 0) {
      EXPECT_TRUE(result.pairs.empty());
      continue;
    }
    ++solved;
    ASSERT_EQ(scratch.rows, expected.rows);
    ASSERT_EQ(scratch.cols, expected.cols);
    ASSERT_GE(scratch.cost.size(), expected.cost.size());
    EXPECT_TRUE(std::equal(expected.cost.begin(), expected.cost.end(),
                           scratch.cost.begin()));
    const Status certificate = CheckAssignmentCertificate(scratch);
    EXPECT_TRUE(certificate.ok()) << certificate.ToString();
    double max_weight = 0.0;
    for (const Edge& e : inst.edges) {
      max_weight = std::max(max_weight, e.weight);
    }
    double dual = 0.0;
    for (size_t i = 1; i <= scratch.rows; ++i) dual += scratch.u[i];
    for (size_t j = 1; j <= scratch.cols; ++j) dual += scratch.v[j];
    EXPECT_NEAR(result.total_weight,
                static_cast<double>(scratch.rows) * max_weight - dual,
                1e-9 * (1.0 + static_cast<double>(scratch.rows) * max_weight));

    if (inst.num_left <= kMaxBruteForceSide &&
        inst.num_right <= kMaxBruteForceSide) {
      ++brute_forced;
      const double best =
          BruteForceBest(inst.num_left, inst.num_right, inst.edges);
      if (inst.tied) {
        EXPECT_EQ(result.total_weight, best);  // Small integers: exact.
      } else {
        EXPECT_NEAR(result.total_weight, best, 1e-9);
      }
    }
  }
  EXPECT_GE(instances, 1000);
  EXPECT_GE(solved, 900);
  EXPECT_GE(brute_forced, 100);
}

TEST(MaxWeightMatchingTest, CertificateRejectsTamperedSolves) {
  // The certificate is only an oracle if it fails on a wrong solve: break
  // each condition of a solved 3 x 4 instance in turn.
  const std::vector<Edge> edges = {{0, 0, 4.0}, {0, 1, 1.0}, {1, 1, 3.0},
                                   {1, 2, 2.5}, {2, 0, 2.0}, {2, 3, 1.5}};
  MatchingScratch solved;
  (void)MaxWeightMatching(3, 4, edges, &solved);
  ASSERT_TRUE(CheckAssignmentCertificate(solved).ok());

  MatchingScratch s = solved;
  s.v[1] = 1.0;  // A positive column potential.
  EXPECT_FALSE(CheckAssignmentCertificate(s).ok());

  s = solved;
  s.u[1] += 1.0;  // Some reduced cost of row 0 goes negative.
  EXPECT_FALSE(CheckAssignmentCertificate(s).ok());

  s = solved;
  std::swap(s.p[1], s.p[2]);  // Two rows trade columns: a cell goes slack.
  EXPECT_FALSE(CheckAssignmentCertificate(s).ok());

  s = solved;
  for (size_t j = 1; j <= s.cols; ++j) {
    if (s.p[j] == 0) s.v[j] = -1.0;  // An unassigned column with a price.
  }
  EXPECT_FALSE(CheckAssignmentCertificate(s).ok());

  s = solved;
  for (size_t j = 1; j <= s.cols; ++j) {
    if (s.p[j] == 1) s.p[j] = 0;  // Row 0 left unassigned.
  }
  EXPECT_FALSE(CheckAssignmentCertificate(s).ok());
}

TEST(MaxWeightMatchingTest, IsolatedVerticesDoNotEnterTheSolve) {
  // 500 tasks against 10 workers with edges on only 3 tasks and 2
  // workers: the solve is 2 x 3, transposed (the workers are the rows).
  std::vector<Edge> edges = {{7, 4, 1.0}, {120, 4, 2.0}, {499, 9, 0.5},
                             {120, 9, 3.0}, {300, 0, -1.0}};
  MatchingScratch scratch;
  MatchResult result = MaxWeightMatching(500, 10, edges, &scratch);
  EXPECT_EQ(scratch.rows, 2u);
  EXPECT_EQ(scratch.cols, 3u);
  ASSERT_EQ(result.pairs.size(), 2u);
  EXPECT_EQ(result.pairs[0], std::make_pair(7, 4));
  EXPECT_EQ(result.pairs[1], std::make_pair(120, 9));
  EXPECT_EQ(result.total_weight, 1.0 + 3.0);
  EXPECT_TRUE(CheckAssignmentCertificate(scratch).ok());
}

TEST(MaxWeightMatchingTest, LargeInstanceRunsAndIsValid) {
  tamp::Rng rng(123);
  const int n = 120;
  std::vector<Edge> edges;
  for (int l = 0; l < n; ++l) {
    for (int r = 0; r < n; ++r) {
      if (rng.Bernoulli(0.15)) edges.push_back({l, r, rng.Uniform(0.1, 5.0)});
    }
  }
  auto result = MaxWeightMatching(n, n, edges);
  ExpectValidMatching(result, n, n);
  EXPECT_GT(result.pairs.size(), 50u);
}

}  // namespace
}  // namespace tamp::matching
