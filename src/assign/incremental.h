#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "assign/candidates.h"
#include "assign/types.h"
#include "geo/spatial_index.h"

namespace tamp::assign {

/// Batch-to-batch incremental candidate generation
/// (--candidates=incremental, DESIGN.md §4h): the warm counterpart of
/// CandidateIndex + GenerateCandidates, producing a bit-identical candidate
/// table while paying only for what changed since the state it already
/// holds. Two persistent structures:
///
/// 1. A delta-updated geo::SpatialLabelIndex over the platform-visible
///    points of the *current* worker set, labelled by stable worker id.
///    Each BuildTable reconciles it against the batch — workers who left
///    are removed, newcomers inserted, movers re-inserted — instead of
///    rebuilding from scratch (entry mutations are counted on
///    assign.index_delta_ops). Queries use the per-worker Theorem-2 bound
///    min(d_w/2, speed_w * (deadline - now)) *without* the match-radius
///    slack `a`: B non-empty requires dis + a <= bound, and stage-3
///    feasibility requires dis^min <= bound, so a worker's evaluation can
///    matter iff some visible point lies within bound_w — the per-worker
///    capped query is an exact filter, not just a conservative superset.
///    Every surviving evaluation therefore produces a table row.
///
/// 2. A per-batch-instant row cache: EvaluateCandidate outcomes keyed by
///    (now, task id, worker id) and stamped with the worker's geometry
///    epoch at that instant. A hit requires the stored worker epoch, task
///    location/deadline, Theorem-2 bound, and match radius to be bitwise
///    equal to the current inputs — the cached row is then *provably* the
///    value EvaluateCandidate would recompute, which is what keeps plans
///    bit-identical to the cold paths (hits land on
///    assign.candidate_cache_hits). Any geometry or task mutation simply
///    misses and re-evaluates; declined pairs bypass the cache entirely
///    (decline state is the one EvaluateCandidate input not in the key).
///
/// Within one simulator run consecutive batches rarely hit (the forecast
/// input includes time-of-day, so predictions change every batch); the
/// cache earns its keep across *runs* that revisit the same batch instants
/// — the sweep benches replay identical worker geometry per `now` for
/// every assignment method sharing a pipeline, and each method after the
/// first reuses the first one's rows.
///
/// Owned per TampPipeline (surviving across RunOnline calls) and passed to
/// KmAssign / PpiAssign / GgpsoAssign by pointer; a null engine means the
/// per-batch CandidateIndex. Not thread-safe across concurrent BuildTable
/// calls; one engine per simulator/pipeline. Within a call, tasks fan out
/// over the deterministic parallel runtime with slot-indexed writes (cache
/// reads only; new rows are buffered per task slot and merged serially),
/// so tables, cache state, and all counters are bit-identical at any
/// thread count.
class IncrementalCandidateEngine {
 public:
  /// Builds the batch candidate table; the result is bit-identical to
  /// GenerateCandidates(tasks, workers, ...) with or without an index
  /// (pinned by assign_incremental_test across PPI/KM/GGPSO, Porto +
  /// Gowalla, 1 and 4 threads).
  std::vector<std::vector<TaskCandidate>> BuildTable(
      const std::vector<SpatialTask>& tasks,
      const std::vector<CandidateWorker>& workers, double match_radius_km,
      double now_min, CandidateGenStats* stats = nullptr);

  /// Mutation count of the persistent index (test/bench introspection).
  uint64_t index_generation() const { return index_.generation(); }
  size_t num_snapshots() const { return snapshots_.size(); }
  size_t num_indexed_workers() const { return indexed_.size(); }

 private:
  /// The EvaluateCandidate-relevant view of one worker: predicted point
  /// locations in order, then the current location (timestamps are not
  /// inputs of the evaluation), plus the bound ingredients.
  struct WorkerState {
    std::vector<geo::Point> points;
    double half_detour_km = 0.0;
    double speed_kmpm = 0.0;

    bool operator==(const WorkerState&) const = default;
  };
  struct SnapshotWorker {
    WorkerState state;
    uint64_t epoch = 0;  // Fresh epoch whenever `state` changes.
  };
  /// One cached EvaluateCandidate outcome plus everything that must match
  /// bitwise for the outcome to be reusable.
  struct CachedRow {
    uint64_t worker_epoch = 0;
    geo::Point task_location;
    double task_deadline_min = 0.0;
    double bound_km = 0.0;  // min(d_w/2, speed_w * (deadline - now)).
    double match_radius_km = 0.0;
    // The row payload (TaskCandidate minus the batch index, which is not
    // stable across runs).
    int b_count = 0;
    double min_b = 0.0;
    double min_dis = 0.0;
    bool stage3_feasible = false;
  };
  /// All reuse state tied to one batch instant `now` (keyed by its bits).
  struct Snapshot {
    uint64_t last_used = 0;  // Engine tick, for LRU eviction.
    std::unordered_map<int, SnapshotWorker> workers;  // By worker id.
    std::unordered_map<uint64_t, CachedRow> rows;     // By (task, worker).
  };

  /// Applies the worker-set delta to the persistent index and `indexed_`.
  void ReconcileIndex(const std::vector<CandidateWorker>& workers);
  void EvictStaleSnapshots();

  geo::SpatialLabelIndex index_;  // Labels are stable worker ids.
  bool index_built_ = false;
  std::unordered_map<int, WorkerState> indexed_;  // What index_ holds.
  uint64_t next_epoch_ = 1;
  uint64_t tick_ = 0;
  std::unordered_map<uint64_t, Snapshot> snapshots_;
};

}  // namespace tamp::assign
