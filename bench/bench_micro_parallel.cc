// What a pool region costs, and where fanning a call site out starts to
// pay. Three tables:
//   1. The bare ParallelFor(10) cost at 1/2/4 threads after idle gaps of
//      200/500/1000 us (mean, p50, p99): the replay's cadence, where the
//      pool workers are parked between triggers.
//   2. GenerateCandidates over a size sweep (16 workers, growing task
//      pools, the event workloads' shape): the serial loop of its per-task
//      body, the same body under ParallelFor at 4 threads, and the
//      production call at 1 and 4 threads. The crossover — the smallest
//      dense pair count from which the 4-thread fan-out beats the serial
//      loop at every larger size — is kMinParallelCandidatePairs.
//   3. ShardedMaxWeightMatching over sweeps of equal, complete shards of
//      two shapes: 4 tasks x 2 workers (the event workloads' pools) and
//      8 tasks x 64 workers (a fleet_100k cluster). The same columns for
//      its per-shard solve; the crossover in summed Shard::cost is
//      kMinParallelShardCost.
// Every timed call follows a 200 us idle gap. Timings are host-dependent
// and only advisory in BENCH_micro_parallel.json; DESIGN.md §4d records
// the measured profile the two constants come from.
//
//   build/bench/bench_micro_parallel [--json-dir=DIR]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "assign/candidate_index.h"
#include "assign/candidates.h"
#include "assign/sharding.h"
#include "bench_common.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "matching/hungarian.h"

namespace {

using tamp::assign::CandidateIndex;
using tamp::assign::CandidateInfo;
using tamp::assign::CandidateWorker;
using tamp::assign::SpatialTask;
using tamp::assign::TaskCandidate;

constexpr int kThreadCounts[] = {1, 2, 4};
constexpr int kGapsUs[] = {200, 500, 1000};
constexpr int kRegionReps = 400;
constexpr int kSiteGapUs = 200;
constexpr int kSiteReps = 200;
constexpr int kSweepWorkers = 16;
constexpr int kSweepTasks[] = {4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048,
                               4096};
/// One shard shape of the solve sweep and the shard counts it runs.
struct ShardShape {
  int tasks;
  int workers;
  std::vector<int> counts;
};
const ShardShape kShardShapes[] = {
    {4, 2, {2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}},
    {8, 64, {1, 2, 3, 4, 6, 8, 16, 32, 64}},
};
constexpr double kMatchRadiusKm = 1.0;
constexpr double kNowMin = 600.0;

void IdleGap(int gap_us) {
  std::this_thread::sleep_for(std::chrono::microseconds(gap_us));
}

/// Mean seconds of `fn` over kSiteReps calls, each after a kSiteGapUs gap.
double MeanSeconds(const std::function<void()>& fn) {
  double total = 0.0;
  for (int rep = 0; rep < kSiteReps; ++rep) {
    IdleGap(kSiteGapUs);
    tamp::Stopwatch watch;
    fn();
    total += watch.ElapsedSeconds();
  }
  return total / kSiteReps;
}

double Quantile(std::vector<double> samples, double q) {
  const size_t k = static_cast<size_t>(q * static_cast<double>(
                                               samples.size() - 1));
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

/// Smallest sweep size from which `fanout` beats `serial` at every larger
/// size, or -1 when the sweep has none.
int64_t Crossover(const std::vector<int64_t>& sizes,
                  const std::vector<double>& serial,
                  const std::vector<double>& fanout) {
  int64_t crossover = -1;
  for (size_t i = sizes.size(); i-- > 0;) {
    if (fanout[i] >= serial[i]) break;
    crossover = sizes[i];
  }
  return crossover;
}

void RegionCostTable(tamp::bench::JsonReport& report) {
  std::printf("== Bare ParallelFor(10) after an idle gap (us) ==\n");
  std::printf("%8s %7s %9s %9s %9s\n", "threads", "gap_us", "mean", "p50",
              "p99");
  std::vector<size_t> slots(10);
  for (int threads : kThreadCounts) {
    tamp::SetParallelThreadCount(threads);
    tamp::ParallelFor(slots.size(), [&](size_t i) { slots[i] = i; });
    for (int gap : kGapsUs) {
      std::vector<double> samples;
      samples.reserve(kRegionReps);
      double total = 0.0;
      for (int rep = 0; rep < kRegionReps; ++rep) {
        IdleGap(gap);
        tamp::Stopwatch watch;
        tamp::ParallelFor(slots.size(), [&](size_t i) { slots[i] = i; });
        samples.push_back(watch.ElapsedSeconds());
        total += samples.back();
      }
      const double mean = total / kRegionReps;
      const double p50 = Quantile(samples, 0.50);
      const double p99 = Quantile(samples, 0.99);
      std::printf("%8d %7d %9.1f %9.1f %9.1f\n", threads, gap, mean * 1e6,
                  p50 * 1e6, p99 * 1e6);
      const std::string key = "region.t" + std::to_string(threads) + ".gap" +
                              std::to_string(gap);
      report.AddStage(key + ".mean_s", mean);
      report.AddStage(key + ".p50_s", p50);
      report.AddStage(key + ".p99_s", p99);
    }
  }
}

/// A Porto-sized batch: kSweepWorkers workers with 4-step predicted walks
/// and `num_tasks` open tasks, uniform over the 28 x 14 km city.
struct Batch {
  std::vector<SpatialTask> tasks;
  std::vector<CandidateWorker> workers;
};

Batch MakeBatch(int num_tasks, uint64_t seed) {
  tamp::Rng rng(seed);
  Batch batch;
  for (int w = 0; w < kSweepWorkers; ++w) {
    CandidateWorker cw;
    cw.id = w;
    tamp::geo::Point p{rng.Uniform(0.0, 28.0), rng.Uniform(0.0, 14.0)};
    cw.current_location = p;
    for (int s = 1; s <= 4; ++s) {
      p.x += rng.Uniform(-1.0, 1.0);
      p.y += rng.Uniform(-1.0, 1.0);
      cw.predicted.push_back({p, kNowMin + 10.0 * s});
    }
    cw.detour_budget_km = 6.0;
    cw.speed_kmpm = 0.5;
    cw.matching_rate = 0.5;
    batch.workers.push_back(std::move(cw));
  }
  for (int t = 0; t < num_tasks; ++t) {
    SpatialTask task;
    task.id = t;
    task.location = {rng.Uniform(0.0, 28.0), rng.Uniform(0.0, 14.0)};
    task.release_time_min = kNowMin;
    task.deadline_min = kNowMin + rng.Uniform(20.0, 60.0);
    batch.tasks.push_back(task);
  }
  return batch;
}

void CandidateSweep(tamp::bench::JsonReport& report) {
  std::printf(
      "\n== GenerateCandidates, %d workers: mean us per call ==\n"
      "%7s %8s %9s %9s %9s %9s\n",
      kSweepWorkers, "tasks", "pairs", "serial", "fan_4t", "site_1t",
      "site_4t");
  std::vector<int64_t> sizes;
  std::vector<double> serial_s;
  std::vector<double> fanout_s;
  for (int num_tasks : kSweepTasks) {
    const Batch batch = MakeBatch(num_tasks, 20251018u + num_tasks);
    const CandidateIndex index(batch.workers);
    std::vector<std::vector<int>> rows(batch.tasks.size());
    // GenerateCandidates' per-task body: query the index, evaluate the
    // hits, keep the pairs that matter.
    auto body = [&](size_t t) {
      thread_local std::vector<int> hits;
      thread_local CandidateIndex::QueryScratch scratch;
      const SpatialTask& task = batch.tasks[t];
      index.QueryWorkers(task.location,
                         index.PruneRadius(task, kMatchRadiusKm, kNowMin),
                         hits, &scratch);
      rows[t].clear();
      for (int w : hits) {
        const CandidateInfo info = tamp::assign::EvaluateCandidate(
            task, batch.workers[static_cast<size_t>(w)], kMatchRadiusKm,
            kNowMin);
        if (info.b_count > 0 || info.stage3_feasible) {
          rows[t].push_back(w);
        }
      }
    };
    auto fanout = [&] { tamp::ParallelFor(batch.tasks.size(), body); };
    auto site = [&] {
      (void)tamp::assign::GenerateCandidates(batch.tasks, batch.workers,
                                             kMatchRadiusKm, kNowMin, &index);
    };

    tamp::SetParallelThreadCount(1);
    const double serial = MeanSeconds([&] {
      for (size_t t = 0; t < batch.tasks.size(); ++t) body(t);
    });
    const double site_1t = MeanSeconds(site);
    tamp::SetParallelThreadCount(4);
    const double fan_4t = MeanSeconds(fanout);
    const double site_4t = MeanSeconds(site);

    const int64_t pairs = static_cast<int64_t>(num_tasks) * kSweepWorkers;
    std::printf("%7d %8lld %9.1f %9.1f %9.1f %9.1f\n", num_tasks,
                static_cast<long long>(pairs), serial * 1e6, fan_4t * 1e6,
                site_1t * 1e6, site_4t * 1e6);
    const std::string key = "candidates.pairs" + std::to_string(pairs);
    report.AddStage(key + ".serial_s", serial);
    report.AddStage(key + ".fan_4t_s", fan_4t);
    report.AddStage(key + ".site_1t_s", site_1t);
    report.AddStage(key + ".site_4t_s", site_4t);
    sizes.push_back(pairs);
    serial_s.push_back(serial);
    fanout_s.push_back(fan_4t);
  }
  std::printf("crossover (4-thread fan-out beats serial from): %lld pairs; "
              "kMinParallelCandidatePairs = %lld\n",
              static_cast<long long>(Crossover(sizes, serial_s, fanout_s)),
              static_cast<long long>(tamp::assign::kMinParallelCandidatePairs));
}

void ShardSweep(const ShardShape& shape, tamp::bench::JsonReport& report) {
  std::printf(
      "\n== ShardedMaxWeightMatching, %d x %d shards: mean us per call ==\n"
      "%7s %8s %9s %9s %9s %9s\n",
      shape.tasks, shape.workers, "shards", "cost", "serial", "fan_4t",
      "site_1t", "site_4t");
  std::vector<int64_t> sizes;
  std::vector<double> serial_s;
  std::vector<double> fanout_s;
  for (int num_shards : shape.counts) {
    tamp::Rng rng(20251019u + num_shards);
    const int num_tasks = num_shards * shape.tasks;
    const int num_workers = num_shards * shape.workers;
    // Complete bipartite blocks, one per shard: a table row and a
    // positive edge for every (task, worker) pair inside a block.
    std::vector<std::vector<TaskCandidate>> table(
        static_cast<size_t>(num_tasks));
    std::vector<tamp::matching::Edge> edges;
    std::vector<std::vector<tamp::matching::Edge>> local(
        static_cast<size_t>(num_shards));
    for (int s = 0; s < num_shards; ++s) {
      for (int i = 0; i < shape.tasks; ++i) {
        for (int j = 0; j < shape.workers; ++j) {
          const int t = s * shape.tasks + i;
          const int w = s * shape.workers + j;
          TaskCandidate tc;
          tc.worker = w;
          table[static_cast<size_t>(t)].push_back(tc);
          const double weight = rng.Uniform(0.1, 1.0);
          edges.push_back({t, w, weight});
          local[static_cast<size_t>(s)].push_back({i, j, weight});
        }
      }
    }
    const std::vector<SpatialTask> tasks(static_cast<size_t>(num_tasks));
    const std::vector<CandidateWorker> workers(
        static_cast<size_t>(num_workers));
    const tamp::assign::ShardPlan plan =
        tamp::assign::BuildShardPlan(table, tasks, workers);
    int64_t cost = 0;
    for (const tamp::assign::Shard& shard : plan.shards) cost += shard.cost;

    std::vector<tamp::matching::MatchResult> sub(local.size());
    // ShardedMaxWeightMatching's per-shard body.
    auto body = [&](size_t s) {
      thread_local tamp::matching::MatchingScratch scratch;
      sub[s] = tamp::matching::MaxWeightMatching(shape.tasks, shape.workers,
                                                 local[s], &scratch);
    };
    auto fanout = [&] { tamp::ParallelFor(local.size(), body); };
    auto site = [&] {
      (void)tamp::assign::ShardedMaxWeightMatching(num_tasks, num_workers,
                                                   edges, plan);
    };

    tamp::SetParallelThreadCount(1);
    const double serial = MeanSeconds([&] {
      for (size_t s = 0; s < local.size(); ++s) body(s);
    });
    const double site_1t = MeanSeconds(site);
    tamp::SetParallelThreadCount(4);
    const double fan_4t = MeanSeconds(fanout);
    const double site_4t = MeanSeconds(site);

    std::printf("%7d %8lld %9.1f %9.1f %9.1f %9.1f\n", num_shards,
                static_cast<long long>(cost), serial * 1e6, fan_4t * 1e6,
                site_1t * 1e6, site_4t * 1e6);
    const std::string key = "shards.t" + std::to_string(shape.tasks) + "w" +
                            std::to_string(shape.workers) + ".cost" +
                            std::to_string(cost);
    report.AddStage(key + ".serial_s", serial);
    report.AddStage(key + ".fan_4t_s", fan_4t);
    report.AddStage(key + ".site_1t_s", site_1t);
    report.AddStage(key + ".site_4t_s", site_4t);
    sizes.push_back(cost);
    serial_s.push_back(serial);
    fanout_s.push_back(fan_4t);
  }
  std::printf("crossover (4-thread fan-out beats serial from): cost %lld; "
              "kMinParallelShardCost = %lld\n",
              static_cast<long long>(Crossover(sizes, serial_s, fanout_s)),
              static_cast<long long>(tamp::assign::kMinParallelShardCost));
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_dir;
  static const std::string kJsonDir = "--json-dir=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(kJsonDir, 0) != 0) {
      std::fprintf(stderr, "usage: %s [--json-dir=DIR]\n", argv[0]);
      return 2;
    }
    json_dir = arg.substr(kJsonDir.size());
  }
  tamp::bench::JsonReport report("micro_parallel", json_dir);
  report.IncludeObs(false);
  RegionCostTable(report);
  CandidateSweep(report);
  for (const ShardShape& shape : kShardShapes) ShardSweep(shape, report);
  tamp::SetParallelThreadCount(0);
  return 0;
}
