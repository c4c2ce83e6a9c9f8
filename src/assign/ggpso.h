#pragma once

#include "assign/types.h"
#include "common/rng.h"

namespace tamp::assign {

class IncrementalCandidateEngine;

/// Parameters of the GGPSO baseline.
struct GgpsoConfig {
  int population = 24;
  int generations = 60;
  double crossover_rate = 0.7;
  double mutation_rate = 0.15;
  /// Fitness = completed-pair count + cost_weight * sum(1/(1+dis)).
  double cost_weight = 0.25;
  /// Matching-rate radius a used in the feasibility test (same as PPI's).
  double match_radius_km = 0.5;
  uint64_t seed = 99;
};

/// GGPSO [11]: the state-of-the-art mobility-prediction-aware assignment
/// baseline — a genetic algorithm with particle-swarm-style guidance that
/// iteratively improves a population of assignment plans through
/// crossover with the global best, mutation, and tournament selection.
/// Feasibility uses the same predicted-trajectory test as PPI's stage 3,
/// over candidates from the per-batch spatial index (CandidateIndex) or
/// from `engine` when one is given (--candidates=incremental; the table is
/// bit-identical). The GA runs over the whole batch: its population evolves
/// through one sequential RNG stream spanning all tasks, so unlike KM and
/// PPI it is not split per connected component.
AssignmentPlan GgpsoAssign(const std::vector<SpatialTask>& tasks,
                           const std::vector<CandidateWorker>& workers,
                           double now_min, const GgpsoConfig& config,
                           IncrementalCandidateEngine* engine = nullptr);

}  // namespace tamp::assign
