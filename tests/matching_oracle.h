#pragma once

// Exhaustive maximum-weight bipartite matching: the oracle the matcher
// tests check every KM solve against (exponential; tiny instances only),
// and the seeded fuzz instances the KM and sharded-KM suites share.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
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

/// One seeded fuzz instance of the KM suites.
struct FuzzInstance {
  std::string family;
  int num_left = 0;
  int num_right = 0;
  std::vector<Edge> edges;
  /// Weights drawn from {1, 2, 3}: optimal totals are exact, but several
  /// matchings may reach them.
  bool tied = false;
};

/// Over 1,000 seeded instances of the shapes the KM solve must handle:
/// sides of 1..12 against 1..40 in both orientations at densities 0.05,
/// 0.2 and 1, with continuous or tied weights, each with sprinkled
/// duplicate edges (the max wins), non-positive edges (dropped) and, half
/// the time, one left and one right vertex stripped of every edge; plus
/// one-worker stars (1..40 tasks on a single worker) and their
/// one-task mirror.
inline std::vector<FuzzInstance> KmFuzzInstances(uint64_t seed) {
  constexpr int kTrials = 80;
  tamp::Rng rng(seed);
  std::vector<FuzzInstance> instances;
  for (bool few_lefts : {true, false}) {
    for (const char* density_name : {"0.05", "0.2", "1"}) {
      const double density = std::stod(density_name);
      for (bool tied : {false, true}) {
        for (int trial = 0; trial < kTrials; ++trial) {
          FuzzInstance inst;
          inst.family = std::string(few_lefts ? "few-lefts" : "few-rights") +
                        " density " + density_name +
                        (tied ? " tied" : "");
          inst.tied = tied;
          const int small = static_cast<int>(rng.UniformInt(1, 12));
          const int large = static_cast<int>(rng.UniformInt(1, 40));
          inst.num_left = few_lefts ? small : large;
          inst.num_right = few_lefts ? large : small;
          auto weight = [&]() {
            return tied ? static_cast<double>(rng.UniformInt(1, 3))
                        : rng.Uniform(0.1, 5.0);
          };
          const bool isolate = rng.Bernoulli(0.5);
          const int lone_left =
              static_cast<int>(rng.UniformInt(0, inst.num_left - 1));
          const int lone_right =
              static_cast<int>(rng.UniformInt(0, inst.num_right - 1));
          for (int l = 0; l < inst.num_left; ++l) {
            for (int r = 0; r < inst.num_right; ++r) {
              if (!rng.Bernoulli(density)) continue;
              if (isolate && (l == lone_left || r == lone_right)) continue;
              inst.edges.push_back({l, r, weight()});
              if (rng.Bernoulli(0.1)) inst.edges.push_back({l, r, weight()});
            }
          }
          if (rng.Bernoulli(0.3)) {
            inst.edges.push_back(
                {static_cast<int>(rng.UniformInt(0, inst.num_left - 1)),
                 static_cast<int>(rng.UniformInt(0, inst.num_right - 1)),
                 rng.Bernoulli(0.5) ? 0.0 : -rng.Uniform(0.1, 5.0)});
          }
          rng.Shuffle(inst.edges);
          instances.push_back(std::move(inst));
        }
      }
    }
  }
  for (int n = 1; n <= 40; ++n) {
    for (bool mirrored : {false, true}) {
      FuzzInstance star;
      star.family = mirrored ? "one-task star" : "one-worker star";
      star.tied = n % 2 == 0;
      star.num_left = mirrored ? 1 : n;
      star.num_right = mirrored ? n : 1;
      for (int k = 0; k < n; ++k) {
        const double w = star.tied ? static_cast<double>(rng.UniformInt(1, 3))
                                   : rng.Uniform(0.1, 5.0);
        star.edges.push_back({mirrored ? 0 : k, mirrored ? k : 0, w});
      }
      instances.push_back(std::move(star));
    }
  }
  return instances;
}

}  // namespace tamp::matching
