#include "cluster/kmeans.h"

#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace tamp::cluster {
namespace {

/// Three well-separated blobs in 2-D.
std::vector<std::vector<double>> MakeBlobs(tamp::Rng& rng, int per_blob) {
  std::vector<std::vector<double>> points;
  const double centers[3][2] = {{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}};
  for (int b = 0; b < 3; ++b) {
    for (int i = 0; i < per_blob; ++i) {
      points.push_back({centers[b][0] + rng.Normal(0.0, 0.4),
                        centers[b][1] + rng.Normal(0.0, 0.4)});
    }
  }
  return points;
}

TEST(SoftKMeansTest, ResponsibilitiesAreDistributions) {
  tamp::Rng rng(13);
  auto points = MakeBlobs(rng, 10);
  SoftKMeansResult result = SoftKMeans(points, 3, 2.0, rng);
  for (const auto& resp : result.responsibilities) {
    double sum = 0.0;
    for (double r : resp) {
      EXPECT_GE(r, 0.0);
      EXPECT_LE(r, 1.0);
      sum += r;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(SoftKMeansTest, HighStiffnessApproachesHardAssignment) {
  tamp::Rng rng(17);
  auto points = MakeBlobs(rng, 10);
  SoftKMeansResult result = SoftKMeans(points, 3, 50.0, rng);
  for (const auto& resp : result.responsibilities) {
    double max_r = 0.0;
    for (double r : resp) max_r = std::max(max_r, r);
    EXPECT_GT(max_r, 0.99);
  }
}

TEST(SoftKMeansTest, SeparatedBlobsGetDistinctArgmaxClusters) {
  tamp::Rng rng(19);
  auto points = MakeBlobs(rng, 12);
  SoftKMeansResult result = SoftKMeans(points, 3, 5.0, rng);
  auto argmax = [&](int p) {
    const auto& r = result.responsibilities[p];
    return static_cast<int>(std::max_element(r.begin(), r.end()) - r.begin());
  };
  std::set<int> ids;
  for (int b = 0; b < 3; ++b) {
    int first = argmax(b * 12);
    ids.insert(first);
    for (int i = 1; i < 12; ++i) EXPECT_EQ(argmax(b * 12 + i), first);
  }
  EXPECT_EQ(ids.size(), 3u);
}

}  // namespace
}  // namespace tamp::cluster
