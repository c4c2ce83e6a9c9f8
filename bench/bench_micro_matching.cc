// Micro-benchmarks of the Kuhn-Munkres matcher: the inner loop every
// assignment algorithm (and every PPI stage) calls.
#include <benchmark/benchmark.h>

#include <string>

#include "common/rng.h"
#include "matching/hungarian.h"

namespace {

std::vector<tamp::matching::Edge> RandomEdges(int num_left, int num_right,
                                              double density, uint64_t seed) {
  tamp::Rng rng(seed);
  std::vector<tamp::matching::Edge> edges;
  for (int l = 0; l < num_left; ++l) {
    for (int r = 0; r < num_right; ++r) {
      if (rng.Bernoulli(density)) {
        edges.push_back({l, r, rng.Uniform(0.1, 10.0)});
      }
    }
  }
  return edges;
}

void BM_MaxWeightMatching(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  auto edges = RandomEdges(n, n, 0.2, 42);
  for (auto _ : state) {
    auto result = tamp::matching::MaxWeightMatching(n, n, edges);
    benchmark::DoNotOptimize(result.total_weight);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_MaxWeightMatching)->RangeMultiplier(2)->Range(16, 256)
    ->Complexity(benchmark::oNCubed);

void BM_GreedyMatching(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  auto edges = RandomEdges(n, n, 0.2, 42);
  for (auto _ : state) {
    auto result = tamp::matching::GreedyMatching(n, n, edges);
    benchmark::DoNotOptimize(result.total_weight);
  }
}
BENCHMARK(BM_GreedyMatching)->RangeMultiplier(2)->Range(16, 256);

void BM_MinCostAssignmentDense(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  tamp::Rng rng(7);
  std::vector<std::vector<double>> cost(n, std::vector<double>(n));
  for (auto& row : cost) {
    for (double& c : row) c = rng.Uniform(0.0, 100.0);
  }
  for (auto _ : state) {
    auto result = tamp::matching::MinCostAssignment(cost);
    benchmark::DoNotOptimize(result.total_cost);
  }
}
BENCHMARK(BM_MinCostAssignmentDense)->RangeMultiplier(2)->Range(16, 128);

/// Lopsided sparse instances, the shapes the compacted rectangular solve
/// is for: a surge pool against the few free workers, its transpose, and
/// a fleet_100k shard (every worker of a cluster reaches every task).
struct Lopsided {
  const char* name;
  int num_left;
  int num_right;
  double density;
};
constexpr Lopsided kLopsided[] = {
    {"t500w10", 500, 10, 0.2},
    {"t10w500", 10, 500, 0.2},
    {"t8w64", 8, 64, 1.0},
};

std::vector<tamp::matching::Edge> LopsidedEdges(const Lopsided& shape) {
  return RandomEdges(shape.num_left, shape.num_right, shape.density, 43);
}

void BM_MaxWeightMatchingLopsided(benchmark::State& state) {
  const Lopsided& shape = kLopsided[state.range(0)];
  const auto edges = LopsidedEdges(shape);
  tamp::matching::MatchingScratch scratch;  // As every shard solve has.
  for (auto _ : state) {
    auto result = tamp::matching::MaxWeightMatching(
        shape.num_left, shape.num_right, edges, &scratch);
    benchmark::DoNotOptimize(result.total_weight);
  }
  state.SetLabel(shape.name);
}
BENCHMARK(BM_MaxWeightMatchingLopsided)->DenseRange(0, 2);

}  // namespace

#include "micro_main.h"

namespace tamp::bench {

// Each lopsided instance's matched-pair count and total weight: pure
// functions of the instance, so a solver change that moves either fails
// the gate.
void RegisterMicroMetrics(JsonReport& report) {
  for (const Lopsided& shape : kLopsided) {
    const auto result = tamp::matching::MaxWeightMatching(
        shape.num_left, shape.num_right, LopsidedEdges(shape));
    const std::string key = std::string("matching.") + shape.name;
    report.AddMetric(key + ".pairs", static_cast<double>(result.pairs.size()));
    report.AddMetric(key + ".total_weight", result.total_weight);
  }
}

}  // namespace tamp::bench
