#include "assign/candidates.h"

#include <algorithm>
#include <limits>

#include "assign/candidate_index.h"
#include "common/obs/metrics.h"
#include "common/parallel.h"
#include "common/stopwatch.h"

namespace tamp::assign {
namespace {

/// A pair enters the table iff some assignment stage could use it.
bool Matters(const TaskCandidate& info) {
  return info.b_count > 0 || info.stage3_feasible;
}

}  // namespace

CandidateInfo EvaluateCandidate(const SpatialTask& task,
                                const CandidateWorker& worker,
                                double match_radius_km, double now_min) {
  CandidateInfo info;
  info.min_b = std::numeric_limits<double>::infinity();
  info.min_dis = std::numeric_limits<double>::infinity();

  // A task must be reached strictly before its deadline (Def. 1); an
  // expired task admits no candidates at all.
  if (task.deadline_min <= now_min) return info;

  // Lemma 2: the worker can cover at most d_t km before the deadline.
  double d_t = worker.speed_kmpm * (task.deadline_min - now_min);
  // Theorem 2 bound: a + b <= min(d/2, d_t).
  double bound = std::min(worker.detour_budget_km / 2.0, d_t);

  for (const geo::TimedPoint& p : worker.predicted) {
    double dis = geo::Distance(p.loc, task.location);
    info.min_dis = std::min(info.min_dis, dis);
    if (dis + match_radius_km <= bound) {
      ++info.b_count;
      info.min_b = std::min(info.min_b, dis);
    }
  }
  // The reported current location is part of the platform's knowledge of
  // the (expected) routine; it feeds the plain distance test of stage 3,
  // but not B: B carries prediction-confidence semantics (Theorem 2).
  info.min_dis = std::min(
      info.min_dis, geo::Distance(worker.current_location, task.location));
  info.stage3_feasible = info.min_dis <= bound;
  return info;
}

std::vector<std::vector<TaskCandidate>> GenerateCandidates(
    const std::vector<SpatialTask>& tasks,
    const std::vector<CandidateWorker>& workers, double match_radius_km,
    double now_min, const CandidateIndex* index, CandidateGenStats* stats) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& evals_counter =
      registry.GetCounter("assign.candidate_evals");
  static obs::Counter& pruned_counter =
      registry.GetCounter("assign.candidates_pruned");
  static obs::Histogram& query_hist =
      registry.GetHistogram("assign.index_query_s",
                            obs::DurationEdgesSeconds());

  const int64_t dense =
      static_cast<int64_t>(tasks.size()) * static_cast<int64_t>(workers.size());
  std::vector<std::vector<TaskCandidate>> table(tasks.size());
  std::vector<int64_t> evals(tasks.size(), 0);
  auto fill_row = [&](size_t t) {
    const SpatialTask& task = tasks[t];
    std::vector<TaskCandidate>& row = table[t];
    if (index == nullptr) {
      for (size_t w = 0; w < workers.size(); ++w) {
        TaskCandidate c =
            EvaluateCandidate(task, workers[w], match_radius_km, now_min);
        if (!Matters(c)) continue;
        c.worker = static_cast<int>(w);
        row.push_back(c);
      }
      evals[t] = static_cast<int64_t>(workers.size());
      return;
    }
    Stopwatch query_watch;
    // Per-pool-thread buffers: the hit list and dedup stamps are reused
    // across every task this thread handles, in this batch and later ones.
    thread_local std::vector<int> hits;  // Ascending worker indices.
    thread_local CandidateIndex::QueryScratch scratch;
    index->QueryWorkers(task.location,
                        index->PruneRadius(task, match_radius_km, now_min),
                        hits, &scratch);
    query_hist.Record(query_watch.ElapsedSeconds());
    for (int w : hits) {
      TaskCandidate c = EvaluateCandidate(
          task, workers[static_cast<size_t>(w)], match_radius_km, now_min);
      if (!Matters(c)) continue;
      c.worker = w;
      row.push_back(c);
    }
    evals[t] = static_cast<int64_t>(hits.size());
  };
  // A pool region costs more than a small batch's rows (DESIGN.md §4d), so
  // below the measured crossover the same body runs inline on the caller.
  if (dense < kMinParallelCandidatePairs) {
    for (size_t t = 0; t < tasks.size(); ++t) fill_row(t);
  } else {
    ParallelFor(tasks.size(), fill_row);
  }

  int64_t evaluated = 0;
  for (int64_t e : evals) evaluated += e;
  evals_counter.Increment(evaluated);
  pruned_counter.Increment(dense - evaluated);
  if (stats != nullptr) {
    stats->evaluated += evaluated;
    stats->pruned += dense - evaluated;
  }
  return table;
}

}  // namespace tamp::assign
