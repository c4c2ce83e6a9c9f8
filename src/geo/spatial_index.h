#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/no_init.h"
#include "geo/grid.h"
#include "geo/point.h"

namespace tamp::geo {

/// Uniform-grid index over labelled points (a label is typically a worker
/// index) on an arbitrary bounding box, supporting closed-ball label
/// queries: "which labels own at least one point with dis <= radius?".
///
/// This is the substrate of the assignment path's Theorem-2 candidate
/// pruning (assign::CandidateIndex): the query must be *conservative*
/// w.r.t. the closed inequality `dis + a <= bound`, so — unlike
/// SpatialCountIndex below, whose counting semantics are strict — points
/// exactly at the query radius are returned. "dis" is Distance(), the
/// same sqrt-space arithmetic EvaluateCandidate compares, so a point whose
/// Distance rounds onto the radius is a hit even when its DistanceSquared
/// lies an ulp above radius^2.
///
/// The grid is flat — one cell-offset array and one entry array — and its
/// cell count is bounded by its entry count, so a batch spanning a
/// continent, or one mis-projected fix 10^7 km away, costs memory in
/// proportion to its points, not to its bounding box.
class SpatialLabelIndex {
 public:
  struct Entry {
    Point loc;
    int label = 0;
  };

  /// Reusable per-caller dedup state for the label queries. A label's
  /// stamp equal to the current epoch means "already collected this
  /// query"; bumping the epoch invalidates all stamps at once, so the
  /// vector is written, never cleared. One scratch per thread.
  ///
  /// The epoch is 64-bit: the candidate generator keeps thread_local
  /// scratches alive for a whole process, and a wrapped 32-bit epoch would
  /// let a stale stamp alias the fresh epoch and silently drop hits. The
  /// wrap guard in the query is kept anyway (the fields are public, so a
  /// caller can seed an arbitrary epoch — the regression test does exactly
  /// that).
  struct QueryScratch {
    std::vector<uint64_t> stamp;
    uint64_t epoch = 0;
  };

  /// Most cells a grid over N entries may have: kMaxCellsPerEntry * N +
  /// kMinCells. Memory is then O(entries) however far apart the points
  /// lie (DESIGN.md §4f measures the multiplier).
  static constexpr double kMaxCellsPerEntry = 4.0;
  static constexpr double kMinCells = 64.0;

  /// Entries from which the build fans out over the pool, in chunks of
  /// kEntriesPerChunk entries and at most kMaxBands cell bands: the
  /// crossover measured by bench_micro_parallel (DESIGN.md §4d). Smaller
  /// indexes build inline; the result is the same either way.
  static constexpr size_t kMinParallelEntries = 16384;
  static constexpr size_t kEntriesPerChunk = 8192;
  static constexpr size_t kMaxBands = 8;

  /// Sorts `entries` into a flat uniform grid over their bounding box.
  /// With `target_cell_km <= 0` the cell size is derived so the grid holds
  /// roughly one point per cell; either way it is clamped to [0.05 km,
  /// longest extent], then widened to the smallest cell whose grid meets
  /// the entry-bounded cell budget above. Aborts on a non-finite
  /// coordinate. The bounding box and the stable counting sort run on the
  /// deterministic parallel runtime from kMinParallelEntries entries, in
  /// as many cell bands as threads (at most kMaxBands).
  explicit SpatialLabelIndex(std::span<const Entry> entries,
                             double target_cell_km = 0.0);
  explicit SpatialLabelIndex(const std::vector<Entry>& entries,
                             double target_cell_km = 0.0)
      : SpatialLabelIndex(std::span<const Entry>(entries), target_cell_km) {}

  /// Collects into `out` the ascending, deduplicated labels of every entry
  /// with Distance(entry.loc, center) <= radius_km (closed ball; see class
  /// comment). Clears `out` first. No-op collection for radius < 0. The
  /// answer does not depend on the grid's layout or cell size.
  ///
  /// With a `scratch`, duplicate labels are filtered as entries are
  /// scanned (O(unique) sort) instead of by a sort+unique pass over every
  /// matching point — the fast path for hot per-batch query loops. Only
  /// usable when all labels are non-negative; ignored otherwise.
  void CollectLabelsWithin(const Point& center, double radius_km,
                           std::vector<int>& out,
                           QueryScratch* scratch = nullptr) const;

  size_t num_entries() const { return entries_.size(); }
  /// Cells of the grid (rows x cols), at most the entry-bounded budget.
  size_t num_cells() const { return cell_start_.size() - 1; }

 private:
  /// Clamped rank of the cell `offset_km` from the origin along an axis of
  /// `n` cells. Clamping happens before the integer conversion, so a far
  /// or non-finite query coordinate cannot overflow it.
  int Rank(double offset_km, int n) const;
  size_t CellOf(const Point& p) const;

  Point min_;           // Bounding-box corner; grid origin.
  double cell_km_ = 1.0;
  int rows_ = 1;
  int cols_ = 1;
  // Flat grid: the entries of cell c are entries_[cell_start_[c]] up to
  // entries_[cell_start_[c + 1]], in input order (a stable counting sort).
  NoInitVector<uint32_t> cell_start_;
  NoInitVector<Entry> entries_;
  int max_label_ = -1;        // Largest label; sizes the dedup stamps.
  bool labels_non_negative_ = true;
};

/// Uniform-grid point index supporting fast "count points within radius"
/// queries. The task-assignment-oriented loss (Eq. 7) calls this once per
/// trajectory point per training step, so the count path must be cheap.
class SpatialCountIndex {
 public:
  /// Buckets points into `spec`'s cells. Points are clamped into the area.
  SpatialCountIndex(const GridSpec& spec, const std::vector<Point>& points);

  /// Number of indexed points with dis(point, center) < radius_km.
  int CountWithin(const Point& center, double radius_km) const;

  size_t num_points() const { return num_points_; }

  /// Average number of points falling in a disk of the given radius, i.e.
  /// the rho^t normalizer of Eq. 7 (points per unit circular area times the
  /// disk area). Returns at least a small positive value so weights stay
  /// finite on empty histories.
  double MeanCountPerDisk(double radius_km) const;

 private:
  GridSpec spec_;
  std::vector<std::vector<Point>> buckets_;
  size_t num_points_ = 0;
};

}  // namespace tamp::geo
