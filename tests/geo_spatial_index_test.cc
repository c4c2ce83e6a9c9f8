#include "geo/spatial_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace tamp::geo {
namespace {

int BruteCount(const std::vector<Point>& points, const Point& center,
               double radius) {
  int count = 0;
  for (const Point& p : points) {
    if (Distance(p, center) < radius) ++count;
  }
  return count;
}

TEST(SpatialCountIndexTest, EmptyIndex) {
  GridSpec grid(10.0, 10.0, 10, 10);
  SpatialCountIndex index(grid, {});
  EXPECT_EQ(index.num_points(), 0u);
  EXPECT_EQ(index.CountWithin({5.0, 5.0}, 3.0), 0);
}

TEST(SpatialCountIndexTest, SimpleCounts) {
  GridSpec grid(10.0, 10.0, 10, 10);
  std::vector<Point> pts = {{1, 1}, {1.2, 1.0}, {9, 9}};
  SpatialCountIndex index(grid, pts);
  EXPECT_EQ(index.CountWithin({1, 1}, 0.5), 2);
  EXPECT_EQ(index.CountWithin({9, 9}, 0.5), 1);
  EXPECT_EQ(index.CountWithin({5, 5}, 0.5), 0);
  EXPECT_EQ(index.CountWithin({5, 5}, 100.0), 3);
}

TEST(SpatialCountIndexTest, ZeroRadiusCountsNothing) {
  GridSpec grid(10.0, 10.0, 5, 5);
  SpatialCountIndex index(grid, {{3, 3}});
  EXPECT_EQ(index.CountWithin({3, 3}, 0.0), 0);
}

TEST(SpatialCountIndexTest, StrictInequalityOnBoundary) {
  GridSpec grid(10.0, 10.0, 5, 5);
  SpatialCountIndex index(grid, {{3.0, 3.0}});
  // dis == radius is NOT within (Eq. 7 uses strict <).
  EXPECT_EQ(index.CountWithin({3.0, 4.0}, 1.0), 0);
  EXPECT_EQ(index.CountWithin({3.0, 4.0}, 1.0001), 1);
}

TEST(SpatialCountIndexTest, MatchesBruteForceOnRandomData) {
  GridSpec grid(20.0, 10.0, 16, 32);
  tamp::Rng rng(77);
  std::vector<Point> pts;
  for (int i = 0; i < 500; ++i) {
    pts.push_back({rng.Uniform(0.0, 20.0), rng.Uniform(0.0, 10.0)});
  }
  SpatialCountIndex index(grid, pts);
  for (int q = 0; q < 100; ++q) {
    Point center{rng.Uniform(-1.0, 21.0), rng.Uniform(-1.0, 11.0)};
    double radius = rng.Uniform(0.1, 5.0);
    EXPECT_EQ(index.CountWithin(center, radius),
              BruteCount(pts, center, radius))
        << "center=(" << center.x << "," << center.y << ") r=" << radius;
  }
}

TEST(SpatialCountIndexTest, MeanCountPerDisk) {
  GridSpec grid(10.0, 10.0, 10, 10);
  std::vector<Point> pts(100, Point{5, 5});
  SpatialCountIndex index(grid, pts);
  // 100 points on 100 km^2 -> density 1/km^2; disk r=1 has area pi.
  EXPECT_NEAR(index.MeanCountPerDisk(1.0), M_PI, 1e-9);
}

TEST(SpatialCountIndexTest, MeanCountPerDiskFloorsAtPositive) {
  GridSpec grid(10.0, 10.0, 10, 10);
  SpatialCountIndex index(grid, {});
  EXPECT_GT(index.MeanCountPerDisk(1.0), 0.0);
}

std::vector<int> BruteLabels(
    const std::vector<SpatialLabelIndex::Entry>& entries, const Point& center,
    double radius) {
  std::vector<int> labels;
  for (const auto& e : entries) {
    if (Distance(e.loc, center) <= radius) labels.push_back(e.label);
  }
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  return labels;
}

TEST(SpatialLabelIndexTest, EmptyIndex) {
  SpatialLabelIndex index(std::vector<SpatialLabelIndex::Entry>{});
  EXPECT_EQ(index.num_entries(), 0u);
  std::vector<int> out = {7};
  index.CollectLabelsWithin({0, 0}, 5.0, out);
  EXPECT_TRUE(out.empty());
}

TEST(SpatialLabelIndexTest, ClosedBoundaryIsIncluded) {
  // Unlike SpatialCountIndex (Eq. 7, strict <), the label index serves the
  // Theorem-2 prune, whose membership tests are closed: dis == radius must
  // be a hit or the prune would drop boundary candidates.
  SpatialLabelIndex index({{{3.0, 3.0}, 1}});
  std::vector<int> out;
  index.CollectLabelsWithin({3.0, 4.0}, 1.0, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 1);
  index.CollectLabelsWithin({3.0, 4.0}, 0.9999, out);
  EXPECT_TRUE(out.empty());

  // A rounded tie: (1, 2^-26) has Distance exactly 1.0 from the origin,
  // but DistanceSquared 1 + 2^-52 > 1.0. "dis" is Distance, the quantity
  // EvaluateCandidate compares, so the point is on the closed ball.
  const Point tie{1.0, std::ldexp(1.0, -26)};
  const Point origin{0.0, 0.0};
  ASSERT_EQ(Distance(tie, origin), 1.0);
  ASSERT_GT(DistanceSquared(tie, origin), 1.0);
  SpatialLabelIndex tie_index({{tie, 7}, {{5.0, 5.0}, 8}});
  SpatialLabelIndex::QueryScratch scratch;
  for (SpatialLabelIndex::QueryScratch* s :
       {&scratch, static_cast<SpatialLabelIndex::QueryScratch*>(nullptr)}) {
    tie_index.CollectLabelsWithin(origin, 1.0, out, s);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 7);
    tie_index.CollectLabelsWithin(origin, std::nextafter(1.0, 0.0), out, s);
    EXPECT_TRUE(out.empty());
  }
}

TEST(SpatialLabelIndexTest, DeduplicatesAndSortsLabels) {
  // Three points of worker 2 plus one of worker 0 inside the ball: the
  // result is each label once, ascending.
  SpatialLabelIndex index(
      {{{1.0, 1.0}, 2}, {{1.1, 1.0}, 2}, {{0.9, 1.0}, 2}, {{1.0, 1.2}, 0}});
  std::vector<int> out;
  index.CollectLabelsWithin({1.0, 1.0}, 0.5, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], 2);
}

TEST(SpatialLabelIndexTest, NegativeRadiusReturnsNothing) {
  SpatialLabelIndex index({{{0.0, 0.0}, 0}});
  std::vector<int> out = {1, 2};
  index.CollectLabelsWithin({0.0, 0.0}, -1.0, out);
  EXPECT_TRUE(out.empty());
}

TEST(SpatialLabelIndexTest, MatchesBruteForceOnRandomData) {
  // Points anywhere (no GridSpec): the index derives its own bounding box
  // and cell size. Queries may fall outside the box.
  tamp::Rng rng(123);
  std::vector<SpatialLabelIndex::Entry> entries;
  for (int i = 0; i < 400; ++i) {
    entries.push_back({{rng.Uniform(-7.0, 25.0), rng.Uniform(3.0, 11.0)},
                       static_cast<int>(rng.UniformInt(0, 49))});
  }
  SpatialLabelIndex index(entries);
  EXPECT_EQ(index.num_entries(), entries.size());
  std::vector<int> out;
  for (int q = 0; q < 100; ++q) {
    Point center{rng.Uniform(-10.0, 28.0), rng.Uniform(0.0, 14.0)};
    double radius = rng.Uniform(0.0, 6.0);
    index.CollectLabelsWithin(center, radius, out);
    EXPECT_EQ(out, BruteLabels(entries, center, radius))
        << "center=(" << center.x << "," << center.y << ") r=" << radius;
  }
}

/// The entry-bounded cell budget of SpatialLabelIndex over `n` entries.
double CellBudget(size_t n) {
  return SpatialLabelIndex::kMaxCellsPerEntry * static_cast<double>(n) +
         SpatialLabelIndex::kMinCells;
}

TEST(SpatialLabelIndexTest, FarApartLayoutsStayWithinTheCellBudget) {
  // Regression: the grid used to be sized by its bounding box. At the
  // 1-km target cell below, two clusters 10^4 km apart asked for
  // 10,001^2 = 1.0e8 buckets (2.4 GB of empty vectors), and one outlier
  // 10^7 km away for 1.0e14. The flat grid's cell count is bounded by its
  // entry count, and the answers still match brute force at every query
  // scale: a cluster's neighbourhood, the outlier, empty space in
  // between, and a ball holding everything.
  tamp::Rng rng(4711);
  auto cluster = [&](Point c, double half_km, int n, int first_label) {
    std::vector<SpatialLabelIndex::Entry> entries;
    for (int i = 0; i < n; ++i) {
      const Point p{c.x + rng.Uniform(-half_km, half_km),
                    c.y + rng.Uniform(-half_km, half_km)};
      entries.push_back(
          {p, first_label + static_cast<int>(rng.UniformInt(0, 39))});
    }
    return entries;
  };
  std::vector<SpatialLabelIndex::Entry> two_clusters =
      cluster({0, 0}, 1.0, 200, 0);
  for (const auto& e : cluster({1e4, 1e4}, 1.0, 200, 40)) {
    two_clusters.push_back(e);
  }
  std::vector<SpatialLabelIndex::Entry> outlier =
      cluster({0, 0}, 2.0, 300, 0);
  outlier.push_back({{1e7, -1e7}, 99});

  for (const auto* entries : {&two_clusters, &outlier}) {
    SpatialLabelIndex index(*entries, /*target_cell_km=*/1.0);
    EXPECT_EQ(index.num_entries(), entries->size());
    EXPECT_LE(static_cast<double>(index.num_cells()),
              CellBudget(entries->size()));
    const Point far = entries->back().loc;
    std::vector<int> out;
    for (int q = 0; q < 200; ++q) {
      Point center;
      double radius = rng.Uniform(0.0, 4.0);
      switch (q % 4) {
        case 0:  // Around the first cluster.
          center = {rng.Uniform(-3.0, 3.0), rng.Uniform(-3.0, 3.0)};
          break;
        case 1:  // Around the far cluster or the outlier.
          center = {far.x + rng.Uniform(-3.0, 3.0),
                    far.y + rng.Uniform(-3.0, 3.0)};
          break;
        case 2:  // Empty space in between, with a wide ball.
          center = {far.x * rng.Uniform(0.2, 0.8),
                    far.y * rng.Uniform(0.2, 0.8)};
          radius = std::hypot(far.x, far.y) * rng.Uniform(0.0, 0.6);
          break;
        default:  // A ball holding every entry.
          center = {0.0, 0.0};
          radius = 2.0 * std::hypot(far.x, far.y);
          break;
      }
      index.CollectLabelsWithin(center, radius, out);
      EXPECT_EQ(out, BruteLabels(*entries, center, radius))
          << "center=(" << center.x << "," << center.y << ") r=" << radius;
    }
  }
}

TEST(SpatialLabelIndexTest, CellCountStaysWithinBudgetAtAnyTarget) {
  // The budget holds for the derived cell size, tiny targets and
  // degenerate (zero-width or zero-height) boxes alike.
  tamp::Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 1 + static_cast<int>(rng.UniformInt(0, 300));
    const double width = std::pow(10.0, rng.Uniform(-2.0, 7.0));
    const double height =
        trial % 5 == 0 ? 0.0 : std::pow(10.0, rng.Uniform(-2.0, 7.0));
    std::vector<SpatialLabelIndex::Entry> entries;
    for (int i = 0; i < n; ++i) {
      entries.push_back(
          {{rng.Uniform(0.0, width), rng.Uniform(0.0, height)}, i});
    }
    for (double target : {0.0, 0.001, 1.0}) {
      SpatialLabelIndex index(entries, target);
      EXPECT_LE(static_cast<double>(index.num_cells()),
                CellBudget(entries.size()))
          << "n=" << n << " box=" << width << "x" << height
          << " target=" << target;
    }
  }
}

TEST(SpatialLabelIndexDeathTest, NonFiniteCoordinateAborts) {
  // Trust boundary: a NaN coordinate used to reach an undefined
  // float-to-int conversion while bucketing.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DEATH(SpatialLabelIndex({{{nan, 0.0}, 0}}), "is not finite");
  EXPECT_DEATH(SpatialLabelIndex({{{0.0, 0.0}, 0}, {{1.0, -inf}, 1}}),
               "is not finite");
}

TEST(SpatialLabelIndexTest, ScratchPathMatchesSortUniquePath) {
  // The stamp-dedup fast path must return exactly what the plain
  // sort+unique path returns, with one scratch reused across queries —
  // including across two different indexes (epochs outlive the index).
  tamp::Rng rng(321);
  std::vector<SpatialLabelIndex::Entry> entries;
  for (int i = 0; i < 300; ++i) {
    entries.push_back({{rng.Uniform(0.0, 12.0), rng.Uniform(0.0, 9.0)},
                       static_cast<int>(rng.UniformInt(0, 39))});
  }
  SpatialLabelIndex index(entries);
  SpatialLabelIndex coarse(entries, /*target_cell_km=*/3.0);
  SpatialLabelIndex::QueryScratch scratch;
  std::vector<int> fast, plain;
  for (int q = 0; q < 60; ++q) {
    Point center{rng.Uniform(-2.0, 14.0), rng.Uniform(-2.0, 11.0)};
    double radius = rng.Uniform(0.0, 5.0);
    const SpatialLabelIndex& idx = (q % 2 == 0) ? index : coarse;
    idx.CollectLabelsWithin(center, radius, fast, &scratch);
    idx.CollectLabelsWithin(center, radius, plain);
    EXPECT_EQ(fast, plain)
        << "center=(" << center.x << "," << center.y << ") r=" << radius;
  }
}

TEST(SpatialLabelIndexTest, ScratchWithNegativeLabelsFallsBack) {
  SpatialLabelIndex index({{{1.0, 1.0}, -4}, {{1.1, 1.0}, 2},
                           {{1.0, 1.1}, -4}});
  SpatialLabelIndex::QueryScratch scratch;
  std::vector<int> out;
  index.CollectLabelsWithin({1.0, 1.0}, 1.0, out, &scratch);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], -4);
  EXPECT_EQ(out[1], 2);
}

TEST(SpatialLabelIndexTest, SinglePointAndDegenerateExtent) {
  // All entries at one location: the bounding box has zero extent, which
  // must not divide by zero or lose points.
  SpatialLabelIndex index({{{5.0, 5.0}, 3}, {{5.0, 5.0}, 1}});
  std::vector<int> out;
  index.CollectLabelsWithin({5.0, 5.0}, 0.0, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 3);
}

TEST(SpatialLabelIndexTest, ScratchEpochWrapDoesNotDropLabels) {
  // Regression: a scratch whose epoch is about to wrap must not let stale
  // stamps alias the new epoch and silently drop labels. Seed the epoch at
  // the very edge, run queries across the wrap, and compare against the
  // scratchless path every time.
  SpatialLabelIndex index(
      {{{1.0, 1.0}, 0}, {{1.1, 1.0}, 1}, {{0.9, 1.1}, 2}, {{1.2, 0.9}, 1}});
  SpatialLabelIndex::QueryScratch scratch;
  std::vector<int> warm_up;
  index.CollectLabelsWithin({1.0, 1.0}, 2.0, warm_up, &scratch);
  // All three labels now carry stamps equal to the current epoch; force
  // the *next* query to wrap to 0 and take the reset branch.
  scratch.epoch = std::numeric_limits<uint64_t>::max();
  for (int q = 0; q < 4; ++q) {
    std::vector<int> fast, plain;
    index.CollectLabelsWithin({1.0, 1.0}, 2.0, fast, &scratch);
    index.CollectLabelsWithin({1.0, 1.0}, 2.0, plain);
    EXPECT_EQ(fast, plain) << "query " << q << " after the wrap";
    EXPECT_NE(scratch.epoch, 0u);
  }
}

}  // namespace
}  // namespace tamp::geo
