#pragma once

// Exhaustive maximum-weight bipartite matching: the oracle the matcher
// tests check every KM solve against (exponential; tiny instances only).

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

#include "matching/hungarian.h"

namespace tamp::matching {

/// Best total weight over every matching of `edges`: each left vertex
/// either stays single or takes a free right vertex over a positive edge.
/// Duplicate edges keep the maximum weight.
inline double BruteForceBest(int num_left, int num_right,
                             const std::vector<Edge>& edges) {
  std::vector<std::vector<double>> w(
      static_cast<size_t>(num_left),
      std::vector<double>(static_cast<size_t>(num_right), 0.0));
  for (const Edge& e : edges) {
    double& cell = w[static_cast<size_t>(e.left)][static_cast<size_t>(e.right)];
    cell = std::max(cell, e.weight);
  }
  double best = 0.0;
  std::vector<char> used(static_cast<size_t>(num_right), 0);
  std::function<void(int, double)> rec = [&](int left, double acc) {
    if (left == num_left) {
      best = std::max(best, acc);
      return;
    }
    rec(left + 1, acc);  // Leave `left` unmatched.
    for (int r = 0; r < num_right; ++r) {
      const double weight =
          w[static_cast<size_t>(left)][static_cast<size_t>(r)];
      if (used[static_cast<size_t>(r)] || weight <= 0.0) continue;
      used[static_cast<size_t>(r)] = 1;
      rec(left + 1, acc + weight);
      used[static_cast<size_t>(r)] = 0;
    }
  };
  rec(0, 0.0);
  return best;
}

}  // namespace tamp::matching
