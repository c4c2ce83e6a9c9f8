#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace tamp::matching {

/// A weighted edge of the assignment bipartite graph. In the TAMP setting
/// the left side is tasks, the right side is workers, and the weight is the
/// reciprocal of the (expected) detour, so maximizing total weight prefers
/// short detours (Alg. 4 lines 9/16/32).
struct Edge {
  int left = 0;
  int right = 0;
  double weight = 0.0;  // Must be positive; non-positive edges are dropped.
};

/// Result of a matching: the chosen (left, right) pairs and their summed
/// edge weight.
struct MatchResult {
  std::vector<std::pair<int, int>> pairs;
  double total_weight = 0.0;
};

/// Result of a minimum-cost perfect assignment on a dense cost matrix.
struct AssignmentResult {
  /// col_of_row[r] is the column assigned to row r.
  std::vector<int> col_of_row;
  double total_cost = 0.0;
};

/// Reusable working set for the matchers below. Hot callers that solve
/// many matchings per batch (PPI's per-epsilon-batch KM calls) keep one of
/// these across calls so the O(n^2) potentials/matrix buffers are
/// allocated once and recycled; results are identical with or without a
/// scratch. Not thread-safe: one scratch per calling thread.
struct MatchingScratch {
  // MinCostAssignment working vectors.
  std::vector<double> u, v, minv;
  std::vector<std::size_t> p, way;
  std::vector<char> used;
  // MaxWeightMatching padded square matrices.
  std::vector<std::vector<double>> weight;
  std::vector<std::vector<double>> cost;
};

/// Minimum-cost perfect assignment of every row to a distinct column via
/// the Kuhn-Munkres potentials/shortest-augmenting-path algorithm, O(r^2 c).
/// Requires a rectangular matrix with rows() <= cols() and finite costs.
/// A 0-row matrix is a degenerate no-op: the empty result is returned
/// without touching `scratch`.
/// This is the computational core shared by MaxWeightMatching and the exact
/// 2-D Wasserstein distance. `scratch` may be null (per-call buffers).
AssignmentResult MinCostAssignment(const std::vector<std::vector<double>>& cost,
                                   MatchingScratch* scratch = nullptr);

/// Maximum-weight bipartite matching via the Kuhn-Munkres algorithm
/// ([35], [36] in the paper) with potentials and shortest augmenting paths,
/// O(n^3) on the padded square matrix. Vertices may stay unmatched: only
/// pairs connected by a real (positive-weight) input edge are reported.
///
/// `num_left`/`num_right` bound the vertex ids appearing in `edges`.
/// Duplicate edges keep the maximum weight. `scratch` may be null.
///
/// The assigners solve through assign::ShardedMaxWeightMatching, which
/// calls this once per connected component of the candidate graph; the
/// direct global call is what the UB/LB bounds use and what the sharding
/// tests compare against.
MatchResult MaxWeightMatching(int num_left, int num_right,
                              const std::vector<Edge>& edges,
                              MatchingScratch* scratch = nullptr);

/// Greedy descending-weight matching. No assigner calls it: it stays as
/// the lower bound the matching tests check KM against (the greedy total
/// is always <= the KM total).
MatchResult GreedyMatching(int num_left, int num_right,
                           const std::vector<Edge>& edges);

}  // namespace tamp::matching
