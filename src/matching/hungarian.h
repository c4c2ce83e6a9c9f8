#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/status.h"

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
/// many matchings per batch (every shard solve of a KM or PPI call) keep
/// one of these across calls so the buffers are allocated once and
/// recycled; results are identical with or without a scratch. Not
/// thread-safe: one scratch per calling thread.
///
/// After a solve it holds what CheckAssignmentCertificate verifies: the
/// cost matrix the solver saw and the solver's own potentials.
struct MatchingScratch {
  // The last solve's cost matrix, row-major rows x cols, rows <= cols.
  std::vector<double> cost;
  size_t rows = 0;
  size_t cols = 0;
  // The potentials solver's state, 1-indexed (index 0 is its virtual
  // root): u and v are the row and column potentials, p[j] is the 1-based
  // row assigned to column j (0 = free column).
  std::vector<double> u, v, minv;
  std::vector<size_t> p, way;
  std::vector<char> used;
  // MaxWeightMatching's compaction: the compacted index of every input
  // vertex (-1 = no positive edge), the input id of every compacted
  // vertex (ascending), the compacted weights (row-major, like `cost`)
  // and the column of each row once solved.
  std::vector<int> left_index, right_index;
  std::vector<int> left_ids, right_ids;
  std::vector<double> weight;
  std::vector<int> col_of_row;
};

/// Minimum-cost perfect assignment of every row to a distinct column via
/// the Kuhn-Munkres potentials/shortest-augmenting-path algorithm, O(r^2 c).
/// Requires a rectangular matrix with rows() <= cols() and finite costs.
/// A 0-row matrix is a degenerate no-op: the empty result is returned
/// without touching `scratch`.
/// This is the computational core shared by MaxWeightMatching and the exact
/// 2-D Wasserstein distance (a test oracle; Sim_d uses the sliced one).
/// `scratch` may be null (per-call buffers).
AssignmentResult MinCostAssignment(const std::vector<std::vector<double>>& cost,
                                   MatchingScratch* scratch = nullptr);

/// Maximum-weight bipartite matching via the Kuhn-Munkres algorithm
/// ([35], [36] in the paper) with potentials and shortest augmenting paths.
/// Vertices may stay unmatched: only pairs connected by a real
/// (positive-weight) input edge are reported.
///
/// Only vertices with a positive edge enter the solve, and the smaller
/// side of what remains becomes the rows (lefts and rights swap when more
/// lefts than rights have an edge), so an r x c solve with r <= c costs
/// O(r^2 c) however many isolated vertices `num_left`/`num_right` span.
/// Pairs come back in ascending-left order and `total_weight` is summed in
/// that order, whichever side was the rows.
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

/// The Kuhn-Munkres optimality certificate of the last solve through
/// `scratch` (by MinCostAssignment or MaxWeightMatching). With c the
/// solved rows x cols cost matrix, u and v the solver's row and column
/// potentials, and tol = 1e-9 * (1 + max |c|) * (rows + cols):
///   - every row is assigned to exactly one column, no column twice;
///   - every reduced cost c[i][j] - u[i] - v[j] is >= -tol;
///   - every column potential is <= tol;
///   - every assigned cell's reduced cost is within tol of 0;
///   - every unassigned column's potential is within tol of 0.
/// These are dual feasibility and complementary slackness of the
/// assignment LP (each row once, each column at most once), so they prove
/// the assignment minimum-cost, and MaxWeightMatching's matching
/// maximum-weight. Returns OK, or an Internal status naming the first
/// violated condition. Every solve TAMP_DCHECKs it; tests call it
/// directly, since release builds compile DCHECKs out.
Status CheckAssignmentCertificate(const MatchingScratch& scratch);

/// Greedy descending-weight matching. No assigner calls it: it stays as
/// the lower bound the matching tests check KM against (the greedy total
/// is always <= the KM total).
MatchResult GreedyMatching(int num_left, int num_right,
                           const std::vector<Edge>& edges);

}  // namespace tamp::matching
