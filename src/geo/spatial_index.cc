#include "geo/spatial_index.h"

#include <algorithm>
#include <cmath>

namespace tamp::geo {

SpatialLabelIndex::SpatialLabelIndex(const std::vector<Entry>& entries,
                                     double target_cell_km) {
  num_entries_ = entries.size();
  if (entries.empty()) {
    buckets_.resize(1);
    return;
  }
  Point max = entries[0].loc;
  min_ = entries[0].loc;
  for (const Entry& e : entries) {
    min_.x = std::min(min_.x, e.loc.x);
    min_.y = std::min(min_.y, e.loc.y);
    max.x = std::max(max.x, e.loc.x);
    max.y = std::max(max.y, e.loc.y);
  }
  const double width = max.x - min_.x;
  const double height = max.y - min_.y;
  const double extent = std::max(width, height);
  double cell = target_cell_km;
  if (cell <= 0.0) {
    // ~1 point per cell: balances bucket scan length against the number of
    // cells a query rectangle covers.
    cell = std::sqrt(std::max(width * height, 1e-12) /
                     static_cast<double>(entries.size()));
  }
  cell_km_ = std::clamp(cell, 0.05, std::max(extent, 0.05));
  rows_ = static_cast<int>(height / cell_km_) + 1;
  cols_ = static_cast<int>(width / cell_km_) + 1;
  buckets_.resize(static_cast<size_t>(rows_) * static_cast<size_t>(cols_));
  for (const Entry& e : entries) {
    buckets_[BucketOf(e.loc)].push_back(e);
    max_label_ = std::max(max_label_, e.label);
    if (e.label < 0) labels_non_negative_ = false;
  }
}

size_t SpatialLabelIndex::BucketOf(const Point& p) const {
  int row = static_cast<int>((p.y - min_.y) / cell_km_);
  int col = static_cast<int>((p.x - min_.x) / cell_km_);
  row = std::clamp(row, 0, rows_ - 1);
  col = std::clamp(col, 0, cols_ - 1);
  return static_cast<size_t>(row) * static_cast<size_t>(cols_) +
         static_cast<size_t>(col);
}

void SpatialLabelIndex::CollectLabelsWithin(const Point& center,
                                            double radius_km,
                                            std::vector<int>& out,
                                            QueryScratch* scratch) const {
  out.clear();
  if (radius_km < 0.0 || num_entries_ == 0) return;
  if (scratch != nullptr && labels_non_negative_) {
    scratch->stamp.resize(static_cast<size_t>(max_label_) + 1, 0u);
    ++scratch->epoch;
    if (scratch->epoch == 0u) {  // Wrapped: stale stamps may alias.
      std::fill(scratch->stamp.begin(), scratch->stamp.end(), uint64_t{0});
      scratch->epoch = 1u;
    }
  } else {
    scratch = nullptr;
  }
  // Membership is Distance(e.loc, center) <= radius_km, the closed
  // inequality EvaluateCandidate compares; squared space alone is not
  // that: at a rounded tie d2 can exceed fl(r*r) while fl(sqrt(d2)) == r.
  // Two squared-space tests decide every entry off the band between them
  // without a sqrt: fl(sqrt(fl(r*r))) == r, so d2 <= r2 is a hit, and the
  // inflated `outer` radius (also the cell prune) lies far enough outside
  // r that d2 > outer2 is a miss.
  const double r2 = radius_km * radius_km;
  const double outer = radius_km * (1.0 + 1e-9) + 1e-12;
  const double outer2 = outer * outer;
  auto visit = [&](const Entry& e) {
    const double d2 = DistanceSquared(e.loc, center);
    if (d2 > r2 && (d2 > outer2 || Distance(e.loc, center) > radius_km)) {
      return;
    }
    if (scratch != nullptr) {
      uint64_t& stamp = scratch->stamp[static_cast<size_t>(e.label)];
      if (stamp == scratch->epoch) return;
      stamp = scratch->epoch;
    }
    out.push_back(e.label);
  };
  // Cell ranks of the query rectangle's corners, clamped like BucketOf, so
  // the range is valid even when the ball pokes outside the bounding box.
  const int row_lo = std::clamp(
      static_cast<int>((center.y - outer - min_.y) / cell_km_), 0, rows_ - 1);
  const int row_hi = std::clamp(
      static_cast<int>((center.y + outer - min_.y) / cell_km_), 0, rows_ - 1);
  const int col_lo = std::clamp(
      static_cast<int>((center.x - outer - min_.x) / cell_km_), 0, cols_ - 1);
  const int col_hi = std::clamp(
      static_cast<int>((center.x + outer - min_.x) / cell_km_), 0, cols_ - 1);
  for (int row = row_lo; row <= row_hi; ++row) {
    for (int col = col_lo; col <= col_hi; ++col) {
      const std::vector<Entry>& bucket =
          buckets_[static_cast<size_t>(row) * static_cast<size_t>(cols_) +
                   static_cast<size_t>(col)];
      if (bucket.empty()) continue;
      // Skip cells whose nearest corner already lies outside the ball.
      const double cx0 = min_.x + col * cell_km_, cx1 = cx0 + cell_km_;
      const double cy0 = min_.y + row * cell_km_, cy1 = cy0 + cell_km_;
      const double dx = std::max({cx0 - center.x, 0.0, center.x - cx1});
      const double dy = std::max({cy0 - center.y, 0.0, center.y - cy1});
      if (dx * dx + dy * dy > outer2) continue;
      for (const Entry& e : bucket) visit(e);
    }
  }
  std::sort(out.begin(), out.end());
  if (scratch == nullptr) {
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
}

SpatialCountIndex::SpatialCountIndex(const GridSpec& spec,
                                     const std::vector<Point>& points)
    : spec_(spec),
      buckets_(static_cast<size_t>(spec.num_cells())),
      num_points_(points.size()) {
  for (const Point& p : points) {
    Point clamped = spec_.Clamp(p);
    buckets_[static_cast<size_t>(spec_.FlatIndex(spec_.CellOf(clamped)))]
        .push_back(clamped);
  }
}

int SpatialCountIndex::CountWithin(const Point& center,
                                   double radius_km) const {
  if (radius_km <= 0.0) return 0;
  double cell_w = spec_.width_km() / spec_.cols();
  double cell_h = spec_.height_km() / spec_.rows();
  GridCell lo = spec_.CellOf({center.x - radius_km, center.y - radius_km});
  GridCell hi = spec_.CellOf({center.x + radius_km, center.y + radius_km});
  double r2 = radius_km * radius_km;
  int count = 0;
  for (int row = lo.row; row <= hi.row; ++row) {
    for (int col = lo.col; col <= hi.col; ++col) {
      // Skip cells whose nearest corner is already outside the radius.
      double cx0 = col * cell_w, cx1 = (col + 1) * cell_w;
      double cy0 = row * cell_h, cy1 = (row + 1) * cell_h;
      double dx = std::max({cx0 - center.x, 0.0, center.x - cx1});
      double dy = std::max({cy0 - center.y, 0.0, center.y - cy1});
      if (dx * dx + dy * dy > r2) continue;
      for (const Point& p :
           buckets_[static_cast<size_t>(row * spec_.cols() + col)]) {
        if (DistanceSquared(p, center) < r2) ++count;
      }
    }
  }
  return count;
}

std::vector<Point> SpatialCountIndex::QueryWithin(const Point& center,
                                                  double radius_km) const {
  std::vector<Point> out;
  if (radius_km <= 0.0) return out;
  GridCell lo = spec_.CellOf({center.x - radius_km, center.y - radius_km});
  GridCell hi = spec_.CellOf({center.x + radius_km, center.y + radius_km});
  double r2 = radius_km * radius_km;
  for (int row = lo.row; row <= hi.row; ++row) {
    for (int col = lo.col; col <= hi.col; ++col) {
      for (const Point& p :
           buckets_[static_cast<size_t>(row * spec_.cols() + col)]) {
        if (DistanceSquared(p, center) < r2) out.push_back(p);
      }
    }
  }
  return out;
}

double SpatialCountIndex::MeanCountPerDisk(double radius_km) const {
  double area = spec_.width_km() * spec_.height_km();
  double disk = M_PI * radius_km * radius_km;
  double mean = static_cast<double>(num_points_) * disk / area;
  return std::max(mean, 1e-6);
}

}  // namespace tamp::geo
