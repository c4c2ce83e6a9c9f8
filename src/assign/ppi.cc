#include "assign/ppi.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "assign/candidate_index.h"
#include "assign/candidates.h"
#include "assign/sharding.h"
#include "common/check.h"
#include "common/obs/metrics.h"
#include "common/obs/trace.h"
#include "common/stopwatch.h"
#include "matching/hungarian.h"

namespace tamp::assign {
namespace {

/// A stage-2 candidate: a B-pair with its |B| * MR score.
struct PendingPair {
  int task = -1;
  int worker = -1;
  double min_b = 0.0;
  double score = 0.0;  // |B| * MR.
};

/// The detour a committed pair reports: min B for the Theorem-2 stages,
/// dis^min for stage 3.
enum class Detour { kMinB, kMinDis };

/// Runs KM on the given edges, one solve per touched shard of
/// `shard_plan`, and appends the matched pairs to `plan`, marking
/// tasks/workers as assigned. Each pair's detour is read from its graph
/// row.
void MatchAndCommit(const std::vector<matching::Edge>& edges,
                    const CandidateGraph& graph, const ShardPlan& shard_plan,
                    Detour detour, std::vector<char>& task_done,
                    std::vector<char>& worker_done, AssignmentPlan& plan) {
  if (edges.empty()) return;
  obs::TraceSpan match_span("ppi.match");
  const matching::MatchResult result = ShardedMaxWeightMatching(
      static_cast<int>(task_done.size()), static_cast<int>(worker_done.size()),
      edges, shard_plan);
  for (auto [task, worker] : result.pairs) {
    const size_t ti = static_cast<size_t>(task);
    const size_t wi = static_cast<size_t>(worker);
    TAMP_CHECK(!task_done[ti] && !worker_done[wi]);
    task_done[ti] = 1;
    worker_done[wi] = 1;
    const TaskCandidate* row = graph.Find(ti, worker);
    TAMP_CHECK(row != nullptr);
    plan.pairs.push_back(
        {task, worker, detour == Detour::kMinB ? row->min_b : row->min_dis});
  }
}

}  // namespace

AssignmentPlan PpiAssign(const std::vector<SpatialTask>& tasks,
                         const std::vector<CandidateWorker>& workers,
                         double now_min, double match_radius_km,
                         const PpiConfig& config) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& calls_counter = registry.GetCounter("ppi.calls");
  static obs::Counter& certain_counter =
      registry.GetCounter("ppi.stage1_certain_edges");
  static obs::Counter& pending_counter =
      registry.GetCounter("ppi.stage2_pending_edges");
  static obs::Counter& fallback_counter =
      registry.GetCounter("ppi.stage3_fallback_edges");
  static obs::Histogram& build_hist = registry.GetHistogram(
      "assign.index_build_s", obs::DurationEdgesSeconds());

  obs::TraceSpan ppi_span("ppi.assign");
  calls_counter.Increment();
  const int num_tasks = static_cast<int>(tasks.size());
  const int num_workers = static_cast<int>(workers.size());
  AssignmentPlan plan;
  if (num_tasks == 0 || num_workers == 0) return plan;

  // One candidate graph serves every stage: EvaluateCandidate is pure in
  // (task, worker, now), so one evaluation per pair serves them all.
  std::optional<CandidateIndex> index;
  {
    obs::TraceSpan build_span("ppi.index_build");
    Stopwatch build_watch;
    index.emplace(workers);
    build_hist.Record(build_watch.ElapsedSeconds());
  }
  // Frees the index between its two passes, before any row exists.
  const CandidateGraph graph =
      GenerateCandidates(tasks, workers, match_radius_km, now_min, index);

  std::vector<char> task_done(static_cast<size_t>(num_tasks), 0);
  std::vector<char> worker_done(static_cast<size_t>(num_workers), 0);
  // One decomposition serves every stage (each stage's edges are graph
  // rows, so no edge crosses a component boundary).
  const ShardPlan shards = BuildShardPlan(graph, num_workers);
  std::vector<matching::Edge> edges;
  auto weight_of = [&](double detour) {
    return 1.0 / (detour + config.weight_floor_km);
  };

  // ---- Stage 1 (Alg. 4 lines 1-12): certain pairs (|B| * MR >= 1). ----
  std::optional<obs::TraceSpan> stage1_span(std::in_place, "ppi.stage1");
  std::vector<PendingPair> pending;  // The B-set of lines 10-11.
  for (size_t t = 0; t < graph.num_tasks(); ++t) {
    for (const TaskCandidate& row : graph.RowsOf(t)) {
      if (row.b_count == 0) continue;
      const double score =
          static_cast<double>(row.b_count) *
          workers[static_cast<size_t>(row.worker)].matching_rate;
      if (score >= 1.0) {
        edges.push_back({static_cast<int>(t), row.worker, weight_of(row.min_b)});
      } else {
        pending.push_back({static_cast<int>(t), row.worker, row.min_b, score});
      }
    }
  }
  certain_counter.Increment(static_cast<int64_t>(edges.size()));
  pending_counter.Increment(static_cast<int64_t>(pending.size()));
  MatchAndCommit(edges, graph, shards, Detour::kMinB, task_done, worker_done,
                 plan);
  stage1_span.reset();

  // ---- Stage 2 (lines 13-27): drain pending pairs in descending |B|*MR,
  // epsilon at a time. ----
  std::optional<obs::TraceSpan> stage2_span(std::in_place, "ppi.stage2");
  std::stable_sort(pending.begin(), pending.end(),
                   [](const PendingPair& a, const PendingPair& b) {
                     return a.score > b.score;
                   });
  std::vector<const PendingPair*> batch;
  auto flush_batch = [&]() {
    if (batch.empty()) return;
    // Skip entries invalidated by earlier commits (lines 22-23's removal).
    edges.clear();
    for (const PendingPair* c : batch) {
      if (!task_done[static_cast<size_t>(c->task)] &&
          !worker_done[static_cast<size_t>(c->worker)]) {
        edges.push_back({c->task, c->worker, weight_of(c->min_b)});
      }
    }
    MatchAndCommit(edges, graph, shards, Detour::kMinB, task_done,
                   worker_done, plan);
    batch.clear();
  };
  for (const PendingPair& c : pending) {
    if (task_done[static_cast<size_t>(c.task)] ||
        worker_done[static_cast<size_t>(c.worker)]) {
      continue;
    }
    batch.push_back(&c);
    if (static_cast<int>(batch.size()) == config.epsilon) flush_batch();
  }
  flush_batch();  // Lines 25-27: the final partial batch.
  stage2_span.reset();

  // ---- Stage 3 (lines 28-34): leftovers matched on dis^min only. Every
  // row is stage-3 feasible. ----
  obs::TraceSpan stage3_span("ppi.stage3");
  edges.clear();
  for (size_t t = 0; t < graph.num_tasks(); ++t) {
    if (task_done[t]) continue;
    for (const TaskCandidate& row : graph.RowsOf(t)) {
      if (worker_done[static_cast<size_t>(row.worker)]) continue;
      edges.push_back({static_cast<int>(t), row.worker, weight_of(row.min_dis)});
    }
  }
  fallback_counter.Increment(static_cast<int64_t>(edges.size()));
  MatchAndCommit(edges, graph, shards, Detour::kMinDis, task_done,
                 worker_done, plan);
  return plan;
}

}  // namespace tamp::assign
