#pragma once

#include <cstdint>
#include <vector>

#include "geo/point.h"

namespace tamp::similarity {

/// Exact 1-Wasserstein (earth mover's) distance between two 1-D empirical
/// distributions with uniform weights: the integral of |F_a - F_b| over the
/// merged support. Handles unequal sample counts. Requires both non-empty.
double Wasserstein1D(std::vector<double> a, std::vector<double> b);

/// Sliced 1-Wasserstein distance between two 2-D empirical point sets: the
/// mean of Wasserstein1D over `num_projections` evenly spaced directions.
/// This is the estimator Sim_d uses for every pair of learning tasks.
double SlicedWasserstein2D(const std::vector<geo::Point>& a,
                           const std::vector<geo::Point>& b,
                           int num_projections);

/// Exact 1-Wasserstein distance between two equal-size 2-D empirical point
/// sets via a minimum-cost perfect assignment (O(n^3)); the ground truth the
/// sliced estimator is tested against. Sim_d never calls it. Requires
/// equal, non-zero sizes.
double ExactWasserstein2D(const std::vector<geo::Point>& a,
                          const std::vector<geo::Point>& b);

/// Distribution similarity Sim_d (Eq. 3): the reciprocal of the Wasserstein
/// distance between the two learning tasks' location distributions, squashed
/// into [0, 1] via s/(s + W) with scale parameter `scale_km` so it composes
/// with Sim_s/Sim_l inside Q(G). Identical distributions give 1.
double DistributionSimilarity(const std::vector<geo::Point>& a,
                              const std::vector<geo::Point>& b,
                              int num_projections, double scale_km);

}  // namespace tamp::similarity
