#pragma once

#include <cstddef>

#include "assign/types.h"

namespace tamp::assign {

/// The KM baseline (Section IV-A): builds the bipartite graph exactly as
/// PPI's third stage does — a pair is feasible when the closest predicted
/// point satisfies dis^min <= min(d/2, d_t) — and solves one maximum-weight
/// matching with 1/dis^min weights. Ignores matching rates entirely.
///
/// The production path (the defaults) prunes candidates through the
/// per-batch spatial index (CandidateIndex) and solves per connected
/// component of the candidate graph (BuildShardPlan +
/// ShardedMaxWeightMatching, DESIGN.md §4k). `use_spatial_index = false`
/// (the dense T x W sweep) and `shard_components = false` (one global
/// MaxWeightMatching) are the test oracles of those two layers; every
/// combination yields a bit-identical plan.
AssignmentPlan KmAssign(const std::vector<SpatialTask>& tasks,
                        const std::vector<CandidateWorker>& workers,
                        double now_min, double match_radius_km,
                        double weight_floor_km = 1e-3,
                        bool use_spatial_index = true,
                        // Unused; bench/e2e (frozen) still passes nullptr.
                        std::nullptr_t = nullptr,
                        bool shard_components = true);

}  // namespace tamp::assign
