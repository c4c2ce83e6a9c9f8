#pragma once

#include <vector>

#include "common/rng.h"

namespace tamp::cluster {

/// Result of soft (fuzzy) k-means: per-point membership distribution.
struct SoftKMeansResult {
  /// responsibilities[p][c] in [0,1], rows sum to 1.
  std::vector<std::vector<double>> responsibilities;
  std::vector<std::vector<double>> centroids;
  int iterations = 0;
};

/// Soft k-means with Gaussian responsibilities (stiffness `beta`), the
/// clustering device of the CTML baseline [41]: tasks are assigned to the
/// cluster of maximum responsibility but gradients of all clusters can be
/// mixed by responsibility.
SoftKMeansResult SoftKMeans(const std::vector<std::vector<double>>& points,
                            int k, double beta, Rng& rng,
                            int max_iterations = 100);

}  // namespace tamp::cluster
