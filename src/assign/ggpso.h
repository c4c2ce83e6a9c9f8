#pragma once

#include "assign/types.h"
#include "common/rng.h"

namespace tamp::assign {

/// Parameters of the GGPSO baseline.
struct GgpsoConfig {
  int population = 24;
  int generations = 60;
  double crossover_rate = 0.7;
  double mutation_rate = 0.15;
  /// Fitness = completed-pair count + cost_weight * sum(1/(1+dis)).
  double cost_weight = 0.25;
  uint64_t seed = 99;
};

/// GGPSO [11]: the state-of-the-art mobility-prediction-aware assignment
/// baseline — a genetic algorithm with particle-swarm-style guidance that
/// iteratively improves a population of assignment plans through
/// crossover with the global best, mutation, and tournament selection.
/// Feasibility uses the same predicted-trajectory test as PPI's stage 3,
/// with the matching-rate radius `match_radius_km` (a, as PPI's): a task's
/// feasible workers are its rows of the batch candidate graph, built over
/// the per-batch spatial index (CandidateIndex). The GA runs over the
/// whole batch: its population evolves through one sequential RNG stream
/// spanning all tasks, so unlike KM and PPI it is not split per connected
/// component.
AssignmentPlan GgpsoAssign(const std::vector<SpatialTask>& tasks,
                           const std::vector<CandidateWorker>& workers,
                           double now_min, double match_radius_km,
                           const GgpsoConfig& config);

}  // namespace tamp::assign
