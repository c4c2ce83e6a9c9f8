#include "geo/spatial_index.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"

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

SpatialLabelIndex::SpatialLabelIndex(std::span<const Entry> entries,
                                     double target_cell_km) {
  if (entries.empty()) {
    cell_start_.assign(2, 0u);
    return;
  }
  const size_t n = entries.size();
  // A pool region costs more than a small index's build (DESIGN.md §4d):
  // below the measured crossover, or with one thread, every step runs
  // inline on the caller as one chunk and one band.
  const size_t threads =
      n < kMinParallelEntries ? 1
                              : static_cast<size_t>(ParallelThreadCount());
  const size_t chunks =
      threads <= 1 ? 1 : (n + kEntriesPerChunk - 1) / kEntriesPerChunk;
  auto for_each_chunk = [&](auto&& body) {
    ParallelForIf(chunks > 1, chunks, [&](size_t c) {
      body(c, c * n / chunks, (c + 1) * n / chunks);
    });
  };

  // Bounding box and label range: per-chunk partials folded in chunk
  // order (min and max are exact, so any order gives the same box). One
  // chunk keeps its partial on the stack.
  struct Extent {
    Point lo, hi;
    int max_label = -1;
    bool non_negative = true;
  };
  Extent single;
  std::vector<Extent> per_chunk(chunks > 1 ? chunks : 0);
  Extent* extents = chunks > 1 ? per_chunk.data() : &single;
  for_each_chunk([&](size_t c, size_t begin, size_t end) {
    Extent& x = extents[c];
    x.lo = x.hi = entries[begin].loc;
    for (size_t i = begin; i < end; ++i) {
      const Entry& e = entries[i];
      // Trust boundary: a NaN coordinate would poison the bounding box
      // and reach an undefined float-to-int conversion in CellOf.
      TAMP_CHECK_FINITE(e.loc.x);
      TAMP_CHECK_FINITE(e.loc.y);
      x.lo.x = std::min(x.lo.x, e.loc.x);
      x.lo.y = std::min(x.lo.y, e.loc.y);
      x.hi.x = std::max(x.hi.x, e.loc.x);
      x.hi.y = std::max(x.hi.y, e.loc.y);
      x.max_label = std::max(x.max_label, e.label);
      if (e.label < 0) x.non_negative = false;
    }
  });
  Point max = extents[0].hi;
  min_ = extents[0].lo;
  for (size_t c = 0; c < chunks; ++c) {
    const Extent& x = extents[c];
    min_.x = std::min(min_.x, x.lo.x);
    min_.y = std::min(min_.y, x.lo.y);
    max.x = std::max(max.x, x.hi.x);
    max.y = std::max(max.y, x.hi.y);
    max_label_ = std::max(max_label_, x.max_label);
    labels_non_negative_ = labels_non_negative_ && x.non_negative;
  }
  // Finite corners can still be further apart than a double can hold.
  const double width = TAMP_CHECK_FINITE(max.x - min_.x);
  const double height = TAMP_CHECK_FINITE(max.y - min_.y);
  const double extent = std::max(width, height);
  const double num = static_cast<double>(n);
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
  const size_t num_cells =
      static_cast<size_t>(rows_) * static_cast<size_t>(cols_);

  // Stable counting sort by cell: count, prefix-sum each cell's end, then
  // place the entries back to front, which leaves each cell's offset at
  // its start and keeps input order within a cell. Above the crossover the
  // cells split into contiguous bands, one per thread: every band scans
  // all entries' cells but counts and places only its own, so the writes
  // are disjoint and the result is the serial one. Several bands read
  // every entry's cell, so they compute the cells once up front; one band
  // computes each cell where it reads it, which saves a pass.
  const size_t bands = chunks == 1 ? 1 : std::min(kMaxBands, threads);
  NoInitVector<uint32_t> cell_of(bands > 1 ? n : 0);
  if (bands > 1) {
    for_each_chunk([&](size_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        cell_of[i] = static_cast<uint32_t>(CellOf(entries[i].loc));
      }
    });
  }
  auto cell_at = [&](size_t i) {
    return bands > 1 ? cell_of[i]
                     : static_cast<uint32_t>(CellOf(entries[i].loc));
  };
  // Each band also zeroes its cells and writes its entries, so the fresh
  // buffers are first touched on the threads that fill them.
  cell_start_.resize(num_cells + 1);
  entries_.resize(n);
  std::array<uint32_t, kMaxBands + 1> band_base{};
  auto band_of = [&](size_t b) {
    return std::pair<uint32_t, uint32_t>(
        static_cast<uint32_t>(b * num_cells / bands),
        static_cast<uint32_t>((b + 1) * num_cells / bands));
  };
  ParallelForIf(bands > 1, bands, [&](size_t b) {
    const auto [lo, hi] = band_of(b);
    std::fill(cell_start_.begin() + lo, cell_start_.begin() + hi, 0u);
    uint32_t total = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t c = cell_at(i);
      if (c >= lo && c < hi) {
        ++cell_start_[c];
        ++total;
      }
    }
    band_base[b + 1] = total;
  });
  for (size_t b = 0; b < bands; ++b) band_base[b + 1] += band_base[b];
  ParallelForIf(bands > 1, bands, [&](size_t b) {
    const auto [lo, hi] = band_of(b);
    uint32_t end = band_base[b];
    for (uint32_t c = lo; c < hi; ++c) {
      end += cell_start_[c];
      cell_start_[c] = end;
    }
    for (size_t i = n; i-- > 0;) {
      const uint32_t c = cell_at(i);
      if (c >= lo && c < hi) entries_[--cell_start_[c]] = entries[i];
    }
  });
  cell_start_[num_cells] = static_cast<uint32_t>(n);
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
