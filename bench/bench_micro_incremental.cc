// Micro-benchmarks of the batch-to-batch incremental candidate path: the
// delta-updated index + row cache (IncrementalCandidateEngine) against the
// cold per-batch CandidateIndex rebuild, plus the full KmAssign of one
// batch. RegisterMicroMetrics records the deterministic work counts
// (evaluations, cache hits, index delta ops) that tools/bench_compare
// gates on.
#include <benchmark/benchmark.h>

#include <vector>

#include "assign/candidate_index.h"
#include "assign/candidates.h"
#include "assign/incremental.h"
#include "assign/km_assigner.h"
#include "common/obs/metrics.h"
#include "data/workload.h"
#include "micro_main.h"

namespace {

using tamp::assign::CandidateGenStats;
using tamp::assign::CandidateIndex;
using tamp::assign::GenerateCandidates;
using tamp::assign::IncrementalCandidateEngine;

constexpr double kMatchRadiusKm = 1.0;

struct Batch {
  std::vector<tamp::assign::SpatialTask> tasks;
  std::vector<tamp::assign::CandidateWorker> workers;
  double now = 0.0;
};

/// A Porto batch *sequence* with worker churn: consecutive 2-minute
/// instants where each batch a different ~1/7 of the fleet is offline —
/// the regime the incremental engine's delta updates target.
const std::vector<Batch>& PortoSequence() {
  static const std::vector<Batch>* cached = [] {
    tamp::data::WorkloadConfig config;
    config.kind = tamp::data::WorkloadKind::kPortoDidi;
    config.num_workers = 200;
    config.num_train_days = 1;
    config.num_tasks = 2000;
    config.num_historical_tasks = 50;
    config.seed = 20250707;
    tamp::data::Workload workload = tamp::data::GenerateWorkload(config);

    auto* batches = new std::vector<Batch>();
    const double start =
        workload.task_stream[workload.task_stream.size() / 2]
            .release_time_min;
    for (int b = 0; b < 6; ++b) {
      Batch batch;
      batch.now = start + 2.0 * b;
      for (const tamp::assign::SpatialTask& task : workload.task_stream) {
        if (task.release_time_min <= batch.now + 60.0 &&
            task.deadline_min > batch.now) {
          batch.tasks.push_back(task);
        }
      }
      for (size_t w = 0; w < workload.workers.size(); ++w) {
        if ((static_cast<int>(w) + b) % 7 == 0) continue;  // Churn.
        const tamp::data::WorkerRecord& record = workload.workers[w];
        tamp::assign::CandidateWorker cw;
        cw.id = record.id;
        for (int s = 1; s <= 5; ++s) {
          const double t = batch.now + 10.0 * s;
          cw.predicted.push_back({record.test.PositionAt(t), t});
        }
        cw.current_location = record.test.PositionAt(batch.now);
        cw.detour_budget_km = record.detour_budget_km;
        cw.speed_kmpm = record.speed_kmpm;
        cw.matching_rate =
            0.2 + 0.6 * static_cast<double>(w) /
                      static_cast<double>(workload.workers.size());
        batch.workers.push_back(std::move(cw));
      }
      batches->push_back(std::move(batch));
    }
    return batches;
  }();
  return *cached;
}

void BM_ColdIndexedSequence(benchmark::State& state) {
  const std::vector<Batch>& batches = PortoSequence();
  for (auto _ : state) {
    size_t total = 0;
    for (const Batch& batch : batches) {
      CandidateIndex index(batch.workers);
      auto table = GenerateCandidates(batch.tasks, batch.workers,
                                      kMatchRadiusKm, batch.now, &index);
      total += table.size();
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_ColdIndexedSequence);

void BM_IncrementalFirstPass(benchmark::State& state) {
  const std::vector<Batch>& batches = PortoSequence();
  for (auto _ : state) {
    IncrementalCandidateEngine engine;  // Cold engine: no cache to hit.
    size_t total = 0;
    for (const Batch& batch : batches) {
      auto table = engine.BuildTable(batch.tasks, batch.workers,
                                     kMatchRadiusKm, batch.now);
      total += table.size();
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_IncrementalFirstPass);

void BM_IncrementalReplay(benchmark::State& state) {
  const std::vector<Batch>& batches = PortoSequence();
  // Warmed once; every timed iteration replays the same instants against
  // the populated row cache (the sweep-bench regime where later methods
  // reuse the first method's rows).
  static IncrementalCandidateEngine* engine = [] {
    auto* e = new IncrementalCandidateEngine();
    for (const Batch& batch : PortoSequence()) {
      (void)e->BuildTable(batch.tasks, batch.workers, kMatchRadiusKm,
                          batch.now);
    }
    return e;
  }();
  for (auto _ : state) {
    size_t total = 0;
    for (const Batch& batch : batches) {
      auto table = engine->BuildTable(batch.tasks, batch.workers,
                                      kMatchRadiusKm, batch.now);
      total += table.size();
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_IncrementalReplay);

void BM_KmAssignRepeat(benchmark::State& state) {
  const Batch& batch = PortoSequence().front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tamp::assign::KmAssign(batch.tasks, batch.workers,
                                                    batch.now, kMatchRadiusKm)
                                 .pairs.size());
  }
}
BENCHMARK(BM_KmAssignRepeat);

}  // namespace

namespace tamp::bench {

void RegisterMicroMetrics(JsonReport& report) {
  const std::vector<Batch>& batches = PortoSequence();
  int64_t dense_pairs = 0, tasks = 0;
  CandidateGenStats cold;
  for (const Batch& batch : batches) {
    CandidateIndex index(batch.workers);
    GenerateCandidates(batch.tasks, batch.workers, kMatchRadiusKm, batch.now,
                       &index, &cold);
    dense_pairs += static_cast<int64_t>(batch.tasks.size()) *
                   static_cast<int64_t>(batch.workers.size());
    tasks += static_cast<int64_t>(batch.tasks.size());
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& delta_counter = registry.GetCounter("assign.index_delta_ops");

  IncrementalCandidateEngine engine;
  CandidateGenStats first, replay;
  const int64_t delta_before = delta_counter.value();
  for (const Batch& batch : batches) {
    (void)engine.BuildTable(batch.tasks, batch.workers, kMatchRadiusKm,
                            batch.now, &first);
  }
  const int64_t first_delta_ops = delta_counter.value() - delta_before;
  for (const Batch& batch : batches) {
    (void)engine.BuildTable(batch.tasks, batch.workers, kMatchRadiusKm,
                            batch.now, &replay);
  }
  const int64_t replay_delta_ops =
      delta_counter.value() - delta_before - first_delta_ops;

  report.AddMetric("incremental.batches", static_cast<double>(batches.size()));
  report.AddMetric("incremental.tasks", static_cast<double>(tasks));
  report.AddMetric("incremental.dense_pairs",
                   static_cast<double>(dense_pairs));
  report.AddMetric("incremental.cold_indexed_evals",
                   static_cast<double>(cold.evaluated));
  // First pass: the exact per-worker Theorem-2 filter (no match-radius
  // slack) evaluates strictly less than the cold batch-max prune.
  report.AddMetric("incremental.first_pass_evals",
                   static_cast<double>(first.evaluated));
  report.AddMetric("incremental.first_pass_cache_hits",
                   static_cast<double>(first.cache_hits));
  report.AddMetric("incremental.first_pass_delta_ops",
                   static_cast<double>(first_delta_ops));
  // Replay: identical instants, identical geometry — every prior
  // evaluation must come back as a cache hit. The index still mutates: it
  // tracks the current fleet, not each batch instant, so replaying the
  // churn schedule re-applies the same worker deltas (replay_delta_ops
  // equals first_pass_delta_ops).
  report.AddMetric("incremental.replay_evals",
                   static_cast<double>(replay.evaluated));
  report.AddMetric("incremental.replay_cache_hits",
                   static_cast<double>(replay.cache_hits));
  report.AddMetric("incremental.replay_delta_ops",
                   static_cast<double>(replay_delta_ops));
  report.AddMetric("incremental.eval_reduction_x",
                   static_cast<double>(cold.evaluated) /
                       static_cast<double>(first.evaluated));
}

}  // namespace tamp::bench
