#include "assign/km_assigner.h"

#include <optional>

#include "assign/candidate_index.h"
#include "assign/candidates.h"
#include "assign/sharding.h"
#include "common/obs/metrics.h"
#include "common/obs/trace.h"
#include "common/stopwatch.h"
#include "matching/hungarian.h"

namespace tamp::assign {

AssignmentPlan KmAssign(const std::vector<SpatialTask>& tasks,
                        const std::vector<CandidateWorker>& workers,
                        double now_min, double match_radius_km,
                        double weight_floor_km, bool use_spatial_index,
                        std::nullptr_t, bool shard_components) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& solves_counter = registry.GetCounter("km.solves");
  static obs::Counter& edges_counter = registry.GetCounter("km.edges");
  static obs::Histogram& solve_hist =
      registry.GetHistogram("km.solve_s", obs::DurationEdgesSeconds());
  static obs::Histogram& build_hist = registry.GetHistogram(
      "assign.index_build_s", obs::DurationEdgesSeconds());

  AssignmentPlan plan;
  if (tasks.empty() || workers.empty()) return plan;

  std::optional<CandidateIndex> index;
  if (use_spatial_index) {
    obs::TraceSpan build_span("km.index_build");
    Stopwatch build_watch;
    index.emplace(workers);
    build_hist.Record(build_watch.ElapsedSeconds());
  }
  // Frees the index between its two passes, before any row exists.
  const CandidateGraph graph =
      GenerateCandidates(tasks, workers, match_radius_km, now_min, index);

  // Every row is stage-3 feasible, so every row is an edge.
  solves_counter.Increment();
  edges_counter.Increment(static_cast<int64_t>(graph.rows.size()));
  Stopwatch solve_watch;
  obs::TraceSpan solve_span("km.solve");
  // Connected components of the candidate graph share no feasible edge,
  // so per-shard KM merged in task order is bit-identical to the global
  // solve (DESIGN.md §4k).
  matching::MatchResult result;
  if (shard_components) {
    result = MatchCandidateGraph(
        graph, BuildShardPlan(graph, static_cast<int>(workers.size())),
        weight_floor_km);
  } else {
    std::vector<matching::Edge> edges;
    edges.reserve(graph.rows.size());
    for (size_t t = 0; t < graph.num_tasks(); ++t) {
      for (const TaskCandidate& row : graph.RowsOf(t)) {
        edges.push_back({static_cast<int>(t), row.worker,
                         1.0 / (row.min_dis + weight_floor_km)});
      }
    }
    result = matching::MaxWeightMatching(static_cast<int>(tasks.size()),
                                         static_cast<int>(workers.size()),
                                         edges);
  }
  solve_hist.Record(solve_watch.ElapsedSeconds());
  plan.pairs.reserve(result.pairs.size());
  for (auto [t, w] : result.pairs) {
    plan.pairs.push_back(
        {t, w, graph.Find(static_cast<size_t>(t), w)->min_dis});
  }
  return plan;
}

}  // namespace tamp::assign
