#include "cluster/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace tamp::cluster {
namespace {

double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b) {
  TAMP_CHECK(a.size() == b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

/// k-means++ seeding: first centroid uniform, subsequent ones proportional
/// to squared distance from the nearest chosen centroid.
std::vector<std::vector<double>> SeedCentroids(
    const std::vector<std::vector<double>>& points, int k, Rng& rng) {
  std::vector<std::vector<double>> centroids;
  centroids.reserve(static_cast<size_t>(k));
  size_t first = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(points.size()) - 1));
  centroids.push_back(points[first]);
  std::vector<double> d2(points.size());
  while (static_cast<int>(centroids.size()) < k) {
    for (size_t p = 0; p < points.size(); ++p) {
      double best = std::numeric_limits<double>::infinity();
      for (const auto& c : centroids) {
        best = std::min(best, SquaredDistance(points[p], c));
      }
      d2[p] = best;
    }
    centroids.push_back(points[rng.SampleIndex(d2)]);
  }
  return centroids;
}

}  // namespace

SoftKMeansResult SoftKMeans(const std::vector<std::vector<double>>& points,
                            int k, double beta, Rng& rng,
                            int max_iterations) {
  TAMP_CHECK(!points.empty());
  TAMP_CHECK(k > 0);
  TAMP_CHECK(beta > 0.0);
  k = std::min<int>(k, static_cast<int>(points.size()));
  const size_t dim = points[0].size();
  for (const auto& p : points) TAMP_CHECK(p.size() == dim);

  SoftKMeansResult result;
  result.centroids = SeedCentroids(points, k, rng);
  const size_t num_clusters = static_cast<size_t>(k);
  result.responsibilities.assign(points.size(),
                                 std::vector<double>(num_clusters, 0.0));

  for (int iter = 0; iter < max_iterations; ++iter) {
    // E-step: Gaussian responsibilities (numerically stabilized).
    for (size_t p = 0; p < points.size(); ++p) {
      std::vector<double> logits(num_clusters);
      double max_logit = -std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < num_clusters; ++c) {
        logits[c] = -beta * SquaredDistance(points[p], result.centroids[c]);
        max_logit = std::max(max_logit, logits[c]);
      }
      double denom = 0.0;
      for (size_t c = 0; c < num_clusters; ++c) {
        logits[c] = std::exp(logits[c] - max_logit);
        denom += logits[c];
      }
      for (size_t c = 0; c < num_clusters; ++c) {
        result.responsibilities[p][c] = logits[c] / denom;
      }
    }
    // M-step: responsibility-weighted centroids.
    double shift = 0.0;
    for (size_t c = 0; c < num_clusters; ++c) {
      std::vector<double> sum(dim, 0.0);
      double weight = 0.0;
      for (size_t p = 0; p < points.size(); ++p) {
        double r = result.responsibilities[p][c];
        weight += r;
        for (size_t d = 0; d < dim; ++d) sum[d] += r * points[p][d];
      }
      if (weight < 1e-12) continue;
      std::vector<double> updated(dim);
      for (size_t d = 0; d < dim; ++d) updated[d] = sum[d] / weight;
      shift += SquaredDistance(updated, result.centroids[c]);
      result.centroids[c] = std::move(updated);
    }
    result.iterations = iter + 1;
    if (shift < 1e-12) break;
  }
  return result;
}

}  // namespace tamp::cluster
