#include "matching/hungarian.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace tamp::matching {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

AssignmentResult MinCostAssignment(const std::vector<std::vector<double>>& cost,
                                   MatchingScratch* scratch) {
  const size_t n = cost.size();
  if (n == 0) return AssignmentResult{};  // Nothing to assign.
  const size_t m = cost[0].size();
  TAMP_CHECK_MSG(n <= m, "MinCostAssignment requires rows() <= cols()");
  for (const auto& row : cost) {
    TAMP_CHECK(row.size() == m);
    // Trust boundary: a NaN/Inf cost breaks the shortest-path potentials
    // silently (comparisons with NaN are all false), producing a plausible
    // but wrong assignment instead of a crash.
    for (double c : row) TAMP_CHECK_FINITE(c);
  }

  MatchingScratch local;
  MatchingScratch& s = scratch != nullptr ? *scratch : local;

  // Classic potentials formulation (1-indexed): p[j] is the row assigned to
  // column j; each outer iteration augments along a shortest path.
  // assign() both sizes and resets, so a reused scratch starts clean.
  std::vector<double>& u = s.u;
  std::vector<double>& v = s.v;
  std::vector<size_t>& p = s.p;
  std::vector<size_t>& way = s.way;
  u.assign(n + 1, 0.0);
  v.assign(m + 1, 0.0);
  p.assign(m + 1, 0);
  way.assign(m + 1, 0);

  for (size_t i = 1; i <= n; ++i) {
    p[0] = i;
    size_t j0 = 0;
    std::vector<double>& minv = s.minv;
    std::vector<char>& used = s.used;
    minv.assign(m + 1, kInf);
    used.assign(m + 1, 0);
    do {
      used[j0] = 1;
      size_t i0 = p[j0];
      size_t j1 = 0;
      double delta = kInf;
      for (size_t j = 1; j <= m; ++j) {
        if (used[j]) continue;
        double cur = cost[i0 - 1][j - 1] - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (size_t j = 0; j <= m; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    do {
      size_t j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  AssignmentResult result;
  result.col_of_row.assign(n, -1);
  for (size_t j = 1; j <= m; ++j) {
    if (p[j] == 0) continue;
    result.col_of_row[p[j] - 1] = static_cast<int>(j - 1);
    result.total_cost += cost[p[j] - 1][j - 1];
  }
  return result;
}

MatchResult MaxWeightMatching(int num_left, int num_right,
                              const std::vector<Edge>& edges,
                              MatchingScratch* scratch) {
  TAMP_CHECK(num_left >= 0 && num_right >= 0);
  MatchResult result;
  if (num_left == 0 || num_right == 0) return result;

  // Validate and scan for the heaviest edge before touching any scratch:
  // an all-filtered (or empty) edge set returns without solving.
  double max_weight = 0.0;
  for (const Edge& e : edges) {
    TAMP_CHECK(e.left >= 0 && e.left < num_left);
    TAMP_CHECK(e.right >= 0 && e.right < num_right);
    max_weight = std::max(max_weight, e.weight);
  }
  if (max_weight <= 0.0) return result;  // No positive-weight edges.

  MatchingScratch local;
  MatchingScratch& s = scratch != nullptr ? *scratch : local;

  // Pad to a square weight matrix; absent edges have weight 0 (matching to
  // them is equivalent to staying unmatched and costs nothing).
  const size_t n = static_cast<size_t>(std::max(num_left, num_right));
  std::vector<std::vector<double>>& weight = s.weight;
  weight.resize(n);
  for (auto& row : weight) row.assign(n, 0.0);
  for (const Edge& e : edges) {
    if (e.weight <= 0.0) continue;
    auto& cell = weight[static_cast<size_t>(e.left)][static_cast<size_t>(
        e.right)];
    cell = std::max(cell, e.weight);
  }

  // Convert to a min-cost assignment: cost = max_weight - weight >= 0.
  // Every cell of the used n x n region is written exactly once; resize()
  // alone is safe here because rows kept from a larger previous solve are
  // fully overwritten before use (scratch-reuse parity is pinned by
  // matching_hungarian_test's shrink-then-grow case).
  std::vector<std::vector<double>>& cost = s.cost;
  cost.resize(n);
  for (size_t i = 0; i < n; ++i) {
    cost[i].resize(n);
    for (size_t j = 0; j < n; ++j) cost[i][j] = max_weight - weight[i][j];
  }
  AssignmentResult assignment = MinCostAssignment(cost, &s);

  for (size_t left = 0; left < n; ++left) {
    int right = assignment.col_of_row[left];
    if (right < 0) continue;
    if (left >= static_cast<size_t>(num_left) || right >= num_right) {
      continue;  // Padding.
    }
    const double w = weight[left][static_cast<size_t>(right)];
    if (w <= 0.0) continue;  // Dummy (unmatched) edge.
    result.pairs.emplace_back(static_cast<int>(left), right);
    result.total_weight += w;
  }
  return result;
}

MatchResult GreedyMatching(int num_left, int num_right,
                           const std::vector<Edge>& edges) {
  TAMP_CHECK(num_left >= 0 && num_right >= 0);
  std::vector<Edge> sorted;
  sorted.reserve(edges.size());
  for (const Edge& e : edges) {
    TAMP_CHECK(e.left >= 0 && e.left < num_left);
    TAMP_CHECK(e.right >= 0 && e.right < num_right);
    if (e.weight > 0.0) sorted.push_back(e);
  }
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Edge& a, const Edge& b) {
                     return a.weight > b.weight;
                   });
  std::vector<char> left_used(static_cast<size_t>(num_left), 0);
  std::vector<char> right_used(static_cast<size_t>(num_right), 0);
  MatchResult result;
  for (const Edge& e : sorted) {
    const size_t l = static_cast<size_t>(e.left);
    const size_t r = static_cast<size_t>(e.right);
    if (left_used[l] || right_used[r]) continue;
    left_used[l] = 1;
    right_used[r] = 1;
    result.pairs.emplace_back(e.left, e.right);
    result.total_weight += e.weight;
  }
  return result;
}

}  // namespace tamp::matching
