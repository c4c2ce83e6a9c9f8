#include "assign/candidates.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/obs/metrics.h"
#include "common/parallel.h"
#include "common/stopwatch.h"

namespace tamp::assign {
namespace {

/// A pair enters the graph iff some assignment stage could use it.
bool Matters(const TaskCandidate& info) {
  return info.b_count > 0 || info.stage3_feasible;
}

/// Tasks per chunk of the two generation passes: the unit of the pool's
/// dynamic index claiming, and of pass 1's hit lists.
constexpr size_t kTasksPerChunk = 64;

/// Both passes over a borrowed `index` (nullptr = dense). `release`, when
/// set, is reset between the passes: the production caller's index.
CandidateGraph BuildGraph(const std::vector<SpatialTask>& tasks,
                          const std::vector<CandidateWorker>& workers,
                          double match_radius_km, double now_min,
                          const CandidateIndex* index,
                          std::optional<CandidateIndex>* release,
                          CandidateGenStats* stats) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& evals_counter =
      registry.GetCounter("assign.candidate_evals");
  static obs::Counter& pruned_counter =
      registry.GetCounter("assign.candidates_pruned");
  static obs::Histogram& query_hist =
      registry.GetHistogram("assign.index_query_s",
                            obs::DurationEdgesSeconds());
  // a is a radius; a negative one would also let a |B| > 0 pair fail
  // stage 3, which every reader of the graph relies on not happening.
  TAMP_CHECK(match_radius_km >= 0.0);

  const size_t num_tasks = tasks.size();
  const int64_t dense =
      static_cast<int64_t>(num_tasks) * static_cast<int64_t>(workers.size());
  // A pool region costs more than a small batch's rows (DESIGN.md §4d), so
  // below the measured crossover both passes run inline on the caller.
  const bool inline_only = dense < kMinParallelCandidatePairs;
  const size_t num_chunks =
      inline_only ? 1 : (num_tasks + kTasksPerChunk - 1) / kTasksPerChunk;
  const size_t chunk_tasks = inline_only ? num_tasks : kTasksPerChunk;

  // Pass 1: every task's hits, ascending, appended to its chunk's list;
  // hit_count[t] sizes task t's slice of the row array.
  std::vector<uint32_t> hit_count(num_tasks, 0);
  std::vector<std::vector<int>> chunk_hits(index != nullptr ? num_chunks : 0);
  if (index != nullptr) {
    Stopwatch query_watch;
    ParallelForIf(!inline_only, num_chunks, [&](size_t c) {
      // Per-pool-thread dedup stamps, reused across every chunk this
      // thread handles, in this batch and later ones.
      thread_local std::vector<int> hits;
      thread_local CandidateIndex::QueryScratch scratch;
      std::vector<int>& out = chunk_hits[c];
      const size_t end = std::min(num_tasks, (c + 1) * chunk_tasks);
      for (size_t t = c * chunk_tasks; t < end; ++t) {
        const SpatialTask& task = tasks[t];
        index->QueryWorkers(task.location,
                            index->PruneRadius(task, match_radius_km, now_min),
                            hits, &scratch);
        out.insert(out.end(), hits.begin(), hits.end());
        hit_count[t] = static_cast<uint32_t>(hits.size());
      }
    });
    query_hist.Record(query_watch.ElapsedSeconds());
    if (release != nullptr) release->reset();
  } else {
    std::fill(hit_count.begin(), hit_count.end(),
              static_cast<uint32_t>(workers.size()));
  }

  CandidateGraph graph;
  graph.offsets.resize(num_tasks + 1);
  uint64_t slots = 0;
  for (size_t t = 0; t < num_tasks; ++t) {
    graph.offsets[t] = static_cast<uint32_t>(slots);
    slots += hit_count[t];
    // Offsets are 32-bit: a batch with more pairs to evaluate than that
    // is refused rather than wrapped.
    TAMP_CHECK_MSG(slots <= std::numeric_limits<uint32_t>::max(),
                   "candidate graph exceeds 2^32 - 1 rows");
  }
  graph.offsets[num_tasks] = static_cast<uint32_t>(slots);
  const int64_t evaluated = static_cast<int64_t>(slots);

  // Pass 2: evaluate each task's hits into the front of its slice; rows
  // keep the hits' ascending worker order. hit_count becomes the row count.
  graph.rows.resize(slots);
  ParallelForIf(!inline_only, num_chunks, [&](size_t c) {
    const size_t begin = c * chunk_tasks;
    const size_t end = std::min(num_tasks, begin + chunk_tasks);
    const int* hit = index != nullptr ? chunk_hits[c].data() : nullptr;
    for (size_t t = begin; t < end; ++t) {
      const SpatialTask& task = tasks[t];
      TaskCandidate* row = graph.rows.data() + graph.offsets[t];
      uint32_t kept = 0;
      for (uint32_t k = 0; k < hit_count[t]; ++k) {
        const int w = hit != nullptr ? *hit++ : static_cast<int>(k);
        TaskCandidate info = EvaluateCandidate(
            task, workers[static_cast<size_t>(w)], match_radius_km, now_min);
        if (!Matters(info)) continue;
        info.worker = w;
        row[kept++] = info;
      }
      hit_count[t] = kept;
    }
    if (index != nullptr) chunk_hits[c] = {};
  });

  // Close the gaps pruned hits left, front to back (a row only moves
  // down). Fleet batches, where every hit is a row, move nothing.
  uint32_t dst = 0;
  for (size_t t = 0; t < num_tasks; ++t) {
    const uint32_t src = graph.offsets[t];
    if (dst != src) {
      std::copy(graph.rows.begin() + src,
                graph.rows.begin() + src + hit_count[t],
                graph.rows.begin() + dst);
    }
    graph.offsets[t] = dst;
    dst += hit_count[t];
  }
  graph.offsets[num_tasks] = dst;
  graph.rows.resize(dst);

  evals_counter.Increment(evaluated);
  pruned_counter.Increment(dense - evaluated);
  if (stats != nullptr) {
    stats->evaluated += evaluated;
    stats->pruned += dense - evaluated;
  }
  return graph;
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

const TaskCandidate* CandidateGraph::Find(size_t task, int worker) const {
  const std::span<const TaskCandidate> rows_of = RowsOf(task);
  auto it = std::lower_bound(rows_of.begin(), rows_of.end(), worker,
                             [](const TaskCandidate& row, int w) {
                               return row.worker < w;
                             });
  return it != rows_of.end() && it->worker == worker ? &*it : nullptr;
}

CandidateGraph GenerateCandidates(const std::vector<SpatialTask>& tasks,
                                  const std::vector<CandidateWorker>& workers,
                                  double match_radius_km, double now_min,
                                  std::optional<CandidateIndex>& index,
                                  CandidateGenStats* stats) {
  return BuildGraph(tasks, workers, match_radius_km, now_min,
                    index ? &*index : nullptr, &index, stats);
}

std::vector<std::vector<TaskCandidate>> GenerateCandidates(
    const std::vector<SpatialTask>& tasks,
    const std::vector<CandidateWorker>& workers, double match_radius_km,
    double now_min, const CandidateIndex* index, CandidateGenStats* stats) {
  const CandidateGraph graph = BuildGraph(tasks, workers, match_radius_km,
                                          now_min, index, nullptr, stats);
  std::vector<std::vector<TaskCandidate>> table(graph.num_tasks());
  for (size_t t = 0; t < table.size(); ++t) {
    const std::span<const TaskCandidate> rows = graph.RowsOf(t);
    table[t].assign(rows.begin(), rows.end());
  }
  return table;
}

}  // namespace tamp::assign
