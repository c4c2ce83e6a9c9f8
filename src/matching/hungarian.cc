#include "matching/hungarian.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/check.h"

namespace tamp::matching {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// CheckAssignmentCertificate's slack per unit of cost magnitude and of
/// matrix side: a potential accumulates one rounded delta per augmenting
/// step, and every delta is a difference of costs.
constexpr double kCertificateTolerance = 1e-9;

/// The potentials/shortest-augmenting-path solve of s.cost (s.rows x
/// s.cols, rows <= cols): leaves the row/column potentials in s.u/s.v and
/// the assignment in s.p.
void SolveLoadedCost(MatchingScratch& s) {
  const size_t n = s.rows;
  const size_t m = s.cols;
  const double* cost = s.cost.data();

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
      const double* cost_row = cost + (i0 - 1) * m;
      size_t j1 = 0;
      double delta = kInf;
      for (size_t j = 1; j <= m; ++j) {
        if (used[j]) continue;
        double cur = cost_row[j - 1] - u[i0] - v[j];
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
  TAMP_DCHECK(CheckAssignmentCertificate(s).ok());
}

/// An Internal status whose message is `parts` streamed in order.
template <typename... Parts>
Status Violation(const Parts&... parts) {
  std::ostringstream message;
  (message << ... << parts);
  return Status::Internal(message.str());
}

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
  s.rows = n;
  s.cols = m;
  s.cost.resize(n * m);
  for (size_t i = 0; i < n; ++i) {
    std::copy(cost[i].begin(), cost[i].end(),
              s.cost.begin() + static_cast<std::ptrdiff_t>(i * m));
  }
  SolveLoadedCost(s);

  AssignmentResult result;
  result.col_of_row.assign(n, -1);
  for (size_t j = 1; j <= m; ++j) {
    if (s.p[j] == 0) continue;
    result.col_of_row[s.p[j] - 1] = static_cast<int>(j - 1);
    result.total_cost += cost[s.p[j] - 1][j - 1];
  }
  return result;
}

MatchResult MaxWeightMatching(int num_left, int num_right,
                              const std::vector<Edge>& edges,
                              MatchingScratch* scratch) {
  MatchResult result;
  MaxWeightMatching(num_left, num_right, edges, scratch, &result);
  return result;
}

void MaxWeightMatching(int num_left, int num_right,
                       std::span<const Edge> edges, MatchingScratch* scratch,
                       MatchResult* out) {
  TAMP_CHECK(num_left >= 0 && num_right >= 0);
  MatchResult& result = *out;
  result.pairs.clear();
  result.weights.clear();
  result.total_weight = 0.0;
  if (num_left == 0 || num_right == 0) return;

  // Validate and scan for the heaviest edge before touching any scratch:
  // an all-filtered (or empty) edge set returns without solving.
  double max_weight = 0.0;
  for (const Edge& e : edges) {
    TAMP_CHECK(e.left >= 0 && e.left < num_left);
    TAMP_CHECK(e.right >= 0 && e.right < num_right);
    max_weight = std::max(max_weight, e.weight);
  }
  if (max_weight <= 0.0) return;  // No positive-weight edges.
  // Trust boundary: an infinite weight would make the costs below
  // non-finite, which the potentials cannot order.
  TAMP_CHECK_FINITE(max_weight);

  MatchingScratch local;
  MatchingScratch& s = scratch != nullptr ? *scratch : local;

  // Compact: only vertices with a positive edge enter the solve, numbered
  // in ascending id order.
  s.left_index.assign(static_cast<size_t>(num_left), -1);
  s.right_index.assign(static_cast<size_t>(num_right), -1);
  for (const Edge& e : edges) {
    if (e.weight <= 0.0) continue;
    s.left_index[static_cast<size_t>(e.left)] = 0;
    s.right_index[static_cast<size_t>(e.right)] = 0;
  }
  auto number = [](std::vector<int>& index, std::vector<int>& ids) {
    ids.clear();
    for (size_t id = 0; id < index.size(); ++id) {
      if (index[id] < 0) continue;
      index[id] = static_cast<int>(ids.size());
      ids.push_back(static_cast<int>(id));
    }
  };
  number(s.left_index, s.left_ids);
  number(s.right_index, s.right_ids);

  // The smaller side is the rows, so the solve is O(rows^2 cols).
  const bool transposed = s.left_ids.size() > s.right_ids.size();
  const size_t rows = std::min(s.left_ids.size(), s.right_ids.size());
  const size_t cols = std::max(s.left_ids.size(), s.right_ids.size());
  s.rows = rows;
  s.cols = cols;
  s.weight.assign(rows * cols, 0.0);
  for (const Edge& e : edges) {
    if (e.weight <= 0.0) continue;
    const auto l =
        static_cast<size_t>(s.left_index[static_cast<size_t>(e.left)]);
    const auto r =
        static_cast<size_t>(s.right_index[static_cast<size_t>(e.right)]);
    double& cell = transposed ? s.weight[r * cols + l] : s.weight[l * cols + r];
    cell = std::max(cell, e.weight);
  }
  // Convert to a min-cost assignment: cost = max_weight - weight >= 0. A
  // zero-weight cell (no edge) costs max_weight: assigning a row there is
  // leaving it unmatched, and every row can be, since rows <= cols.
  s.cost.resize(rows * cols);
  for (size_t k = 0; k < rows * cols; ++k) s.cost[k] = max_weight - s.weight[k];
  SolveLoadedCost(s);

  // Emit in ascending-left order and sum total_weight in that order: the
  // sharded merge, and with it every plan and gated cell, relies on this
  // order. When transposed the lefts are the
  // columns, so the columns are walked; otherwise the rows are. A matched
  // zero cell is no edge: its vertices stay unmatched.
  if (transposed) {
    for (size_t j = 1; j <= cols; ++j) {
      if (s.p[j] == 0) continue;
      const double w = s.weight[(s.p[j] - 1) * cols + (j - 1)];
      if (w <= 0.0) continue;
      result.pairs.emplace_back(s.left_ids[j - 1], s.right_ids[s.p[j] - 1]);
      result.weights.push_back(w);
      result.total_weight += w;
    }
  } else {
    s.col_of_row.assign(rows, -1);
    for (size_t j = 1; j <= cols; ++j) {
      if (s.p[j] != 0) s.col_of_row[s.p[j] - 1] = static_cast<int>(j - 1);
    }
    for (size_t i = 0; i < rows; ++i) {
      const size_t j = static_cast<size_t>(s.col_of_row[i]);
      const double w = s.weight[i * cols + j];
      if (w <= 0.0) continue;
      result.pairs.emplace_back(s.left_ids[i], s.right_ids[j]);
      result.weights.push_back(w);
      result.total_weight += w;
    }
  }
}

Status CheckAssignmentCertificate(const MatchingScratch& scratch) {
  const MatchingScratch& s = scratch;
  const size_t n = s.rows;
  const size_t m = s.cols;
  if (n == 0) return Status::Ok();  // No solve yet: nothing to certify.
  if (n > m || s.cost.size() < n * m || s.u.size() != n + 1 ||
      s.v.size() != m + 1 || s.p.size() != m + 1) {
    return Violation("scratch does not hold a solved ", n, " x ", m,
                     " problem");
  }
  double magnitude = 0.0;
  for (size_t k = 0; k < n * m; ++k) {
    magnitude = std::max(magnitude, std::fabs(s.cost[k]));
  }
  const double tol = kCertificateTolerance * (1.0 + magnitude) *
                     static_cast<double>(n + m);
  auto reduced = [&](size_t i, size_t j) {
    return s.cost[i * m + j] - s.u[i + 1] - s.v[j + 1];
  };

  std::vector<size_t> col_of_row(n, m);  // m = unassigned.
  for (size_t j = 0; j < m; ++j) {
    const size_t row = s.p[j + 1];
    if (row == 0) continue;
    if (row > n) {
      return Violation("column ", j, " is assigned to nonexistent row ",
                       row - 1);
    }
    if (col_of_row[row - 1] != m) {
      return Violation("row ", row - 1, " is assigned to two columns");
    }
    col_of_row[row - 1] = j;
  }
  for (size_t i = 0; i < n; ++i) {
    if (col_of_row[i] == m) return Violation("row ", i, " is unassigned");
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      if (reduced(i, j) < -tol) {
        return Violation("dual infeasible: reduced cost ", reduced(i, j),
                         " at (", i, ", ", j, ")");
      }
    }
  }
  for (size_t j = 0; j < m; ++j) {
    const double potential = s.v[j + 1];
    if (potential > tol) {
      return Violation("column ", j, " has positive potential ", potential);
    }
    if (s.p[j + 1] == 0 && potential < -tol) {
      return Violation("unassigned column ", j, " has potential ",
                       potential);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    const double slack = reduced(i, col_of_row[i]);
    if (std::fabs(slack) > tol) {
      return Violation("assigned cell (", i, ", ", col_of_row[i],
                       ") is not tight: reduced cost ", slack);
    }
  }
  return Status::Ok();
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
    result.weights.push_back(e.weight);
    result.total_weight += e.weight;
  }
  return result;
}

}  // namespace tamp::matching
