#include "matching/hungarian.h"

#include <algorithm>
#include <set>

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
  // Regression for the padded-square fill: a large solve leaves stale
  // weight/cost rows in the scratch; a smaller solve then resizes the
  // matrices down, and a regrown solve resizes them up again. Every used
  // cell must be written for the current instance — any stale cell leaking
  // through would change the optimum here, because all three instances put
  // different weights on overlapping (l, r) cells.
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
