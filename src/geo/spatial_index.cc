#include "geo/spatial_index.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/check.h"

namespace tamp::geo {

namespace {

/// Cells of a grid with cell side `cell` over a width x height box.
double GridCells(double width, double height, double cell) {
  return (std::floor(height / cell) + 1.0) * (std::floor(width / cell) + 1.0);
}

/// The smallest cell side whose grid over a width x height box has at
/// most `max_cells` cells: the root of (height/c + 1)(width/c + 1) =
/// max_cells, which bounds the floored count from above, written without
/// cancellation (it also covers a zero-area box), then nudged up past any
/// rounding.
double SmallestCellWithin(double width, double height, double max_cells) {
  const double sum = width + height;
  double cell = (sum + std::sqrt(sum * sum + 4.0 * width * height *
                                                 (max_cells - 1.0))) /
                (2.0 * (max_cells - 1.0));
  while (GridCells(width, height, cell) > max_cells) cell *= 1.0 + 1e-9;
  return cell;
}

}  // namespace

SpatialLabelIndex::SpatialLabelIndex(const std::vector<Entry>& entries,
                                     double target_cell_km) {
  if (entries.empty()) return;
  Point max = entries[0].loc;
  min_ = entries[0].loc;
  for (const Entry& e : entries) {
    // Trust boundary: a NaN coordinate would poison the bounding box and
    // reach an undefined float-to-int conversion in CellOf.
    TAMP_CHECK_FINITE(e.loc.x);
    TAMP_CHECK_FINITE(e.loc.y);
    min_.x = std::min(min_.x, e.loc.x);
    min_.y = std::min(min_.y, e.loc.y);
    max.x = std::max(max.x, e.loc.x);
    max.y = std::max(max.y, e.loc.y);
    max_label_ = std::max(max_label_, e.label);
    if (e.label < 0) labels_non_negative_ = false;
  }
  // Finite corners can still be further apart than a double can hold.
  const double width = TAMP_CHECK_FINITE(max.x - min_.x);
  const double height = TAMP_CHECK_FINITE(max.y - min_.y);
  const double extent = std::max(width, height);
  const double num = static_cast<double>(entries.size());
  double cell = target_cell_km;
  if (cell <= 0.0) {
    // ~1 point per cell: balances bucket scan length against the number of
    // cells a query rectangle covers.
    cell = std::sqrt(std::max(width * height, 1e-12) / num);
  }
  cell = std::clamp(cell, 0.05, std::max(extent, 0.05));
  const double max_cells = kMaxCellsPerEntry * num + kMinCells;
  // Keeps every side, cell index and entry offset below int range.
  TAMP_CHECK_MSG(max_cells < static_cast<double>(
                                 std::numeric_limits<int>::max()),
                 "too many entries for one SpatialLabelIndex");
  if (GridCells(width, height, cell) > max_cells) {
    cell = SmallestCellWithin(width, height, max_cells);
  }
  cell_km_ = cell;
  // The grid has at most max_cells cells, so both sides fit an int.
  rows_ = static_cast<int>(std::floor(height / cell_km_)) + 1;
  cols_ = static_cast<int>(std::floor(width / cell_km_)) + 1;

  // Stable counting sort by cell: count, prefix-sum each cell's end, then
  // place the entries back to front, which leaves each cell's offset at
  // its start and keeps input order within a cell.
  cell_start_.assign(
      static_cast<size_t>(rows_) * static_cast<size_t>(cols_) + 1, 0);
  for (const Entry& e : entries) ++cell_start_[CellOf(e.loc)];
  for (size_t c = 1; c < cell_start_.size(); ++c) {
    cell_start_[c] += cell_start_[c - 1];
  }
  entries_.resize(entries.size());
  for (size_t i = entries.size(); i-- > 0;) {
    entries_[--cell_start_[CellOf(entries[i].loc)]] = entries[i];
  }
}

int SpatialLabelIndex::Rank(double offset_km, int n) const {
  const double rank = std::floor(offset_km / cell_km_);
  if (!(rank > 0.0)) return 0;  // Also a NaN rank.
  if (rank >= static_cast<double>(n - 1)) return n - 1;
  return static_cast<int>(rank);
}

size_t SpatialLabelIndex::CellOf(const Point& p) const {
  return static_cast<size_t>(Rank(p.y - min_.y, rows_)) *
             static_cast<size_t>(cols_) +
         static_cast<size_t>(Rank(p.x - min_.x, cols_));
}

void SpatialLabelIndex::CollectLabelsWithin(const Point& center,
                                            double radius_km,
                                            std::vector<int>& out,
                                            QueryScratch* scratch) const {
  out.clear();
  if (radius_km < 0.0 || entries_.empty()) return;
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
  // Cell ranks of the query rectangle's corners, clamped like CellOf, so
  // the range is valid even when the ball pokes outside the bounding box.
  const int row_lo = Rank(center.y - outer - min_.y, rows_);
  const int row_hi = Rank(center.y + outer - min_.y, rows_);
  const int col_lo = Rank(center.x - outer - min_.x, cols_);
  const int col_hi = Rank(center.x + outer - min_.x, cols_);
  for (int row = row_lo; row <= row_hi; ++row) {
    const size_t row_base =
        static_cast<size_t>(row) * static_cast<size_t>(cols_);
    for (int col = col_lo; col <= col_hi; ++col) {
      const size_t c = row_base + static_cast<size_t>(col);
      const uint32_t begin = cell_start_[c];
      const uint32_t end = cell_start_[c + 1];
      if (begin == end) continue;
      // Skip cells whose nearest corner already lies outside the ball.
      const double cx0 = min_.x + col * cell_km_, cx1 = cx0 + cell_km_;
      const double cy0 = min_.y + row * cell_km_, cy1 = cy0 + cell_km_;
      const double dx = std::max({cx0 - center.x, 0.0, center.x - cx1});
      const double dy = std::max({cy0 - center.y, 0.0, center.y - cy1});
      if (dx * dx + dy * dy > outer2) continue;
      for (uint32_t i = begin; i < end; ++i) visit(entries_[i]);
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

double SpatialCountIndex::MeanCountPerDisk(double radius_km) const {
  double area = spec_.width_km() * spec_.height_km();
  double disk = M_PI * radius_km * radius_km;
  double mean = static_cast<double>(num_points_) * disk / area;
  return std::max(mean, 1e-6);
}

}  // namespace tamp::geo
