#include "assign/candidate_index.h"

#include <algorithm>

#include "common/no_init.h"
#include "common/parallel.h"

namespace tamp::assign {
namespace {

/// Workers per chunk of the parallel entry gather.
constexpr size_t kWorkersPerChunk = 4096;

NoInitVector<geo::SpatialLabelIndex::Entry> PlatformVisiblePoints(
    const std::vector<CandidateWorker>& workers) {
  // Each worker's entries are its predicted points, then its current
  // location, in worker order; chunk c's entries start at first[c],
  // whichever thread writes them. One chunk starts at 0 and needs only the
  // total.
  const size_t chunks =
      (workers.size() + kWorkersPerChunk - 1) / kWorkersPerChunk;
  std::vector<size_t> first(chunks > 1 ? chunks + 1 : 0, 0);
  size_t total = 0;
  for (size_t i = 0; i < workers.size(); ++i) {
    const size_t count = workers[i].predicted.size() + 1;
    total += count;
    if (chunks > 1) first[i / kWorkersPerChunk + 1] += count;
  }
  for (size_t c = 1; c < first.size(); ++c) first[c] += first[c - 1];
  NoInitVector<geo::SpatialLabelIndex::Entry> entries(total);
  auto gather = [&](size_t chunk) {
    const size_t end =
        std::min(workers.size(), (chunk + 1) * kWorkersPerChunk);
    geo::SpatialLabelIndex::Entry* out =
        entries.data() + (chunks > 1 ? first[chunk] : 0);
    for (size_t i = chunk * kWorkersPerChunk; i < end; ++i) {
      const CandidateWorker& w = workers[i];
      const int label = static_cast<int>(i);
      for (const geo::TimedPoint& p : w.predicted) *out++ = {p.loc, label};
      // The current location feeds stage 3's dis^min, so it must be able
      // to keep a worker un-pruned on its own (EvaluateCandidate's
      // fallback).
      *out++ = {w.current_location, label};
    }
  };
  // The same crossover as the index build it feeds.
  ParallelForIf(total >= geo::SpatialLabelIndex::kMinParallelEntries, chunks,
                gather);
  return entries;
}

double MaxHalfDetourKm(const std::vector<CandidateWorker>& workers) {
  double max_half = 0.0;
  for (const CandidateWorker& w : workers) {
    max_half = std::max(max_half, w.detour_budget_km / 2.0);
  }
  return max_half;
}

double MaxSpeedKmpm(const std::vector<CandidateWorker>& workers) {
  double max_speed = 0.0;
  for (const CandidateWorker& w : workers) {
    max_speed = std::max(max_speed, w.speed_kmpm);
  }
  return max_speed;
}

}  // namespace

CandidateIndex::CandidateIndex(const std::vector<CandidateWorker>& workers)
    : max_half_detour_km_(MaxHalfDetourKm(workers)),
      max_speed_kmpm_(MaxSpeedKmpm(workers)),
      // Cells at half the dominant prune radius: queries then touch a
      // handful of cells instead of the dozens the density-derived auto
      // size yields, which is what keeps the per-query constant below the
      // dense per-row cost at realistic batch sizes. Where that target
      // would grid a wide, sparse batch (fleet_100k's clusters span
      // 3,900 km) into more cells than the index's entry-bounded budget,
      // the index widens the cell instead; answers do not change.
      index_(PlatformVisiblePoints(workers), max_half_detour_km_ / 2.0) {}

double CandidateIndex::PruneRadius(const SpatialTask& task,
                                   double match_radius_km,
                                   double now_min) const {
  if (task.deadline_min <= now_min) return -1.0;  // Expired: prune all.
  const double d_t = max_speed_kmpm_ * (task.deadline_min - now_min);
  return std::min(max_half_detour_km_, d_t) + match_radius_km;
}

}  // namespace tamp::assign
