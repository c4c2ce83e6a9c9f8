// What a pool region costs, and where fanning a call site out starts to
// pay. Five tables:
//   1. The bare ParallelFor(10) cost at 1/2/4 threads after idle gaps of
//      200/500/1000 us (mean, p50, p99): the replay's cadence, where the
//      pool workers are parked between triggers.
//   2. GenerateCandidates over a size sweep (16 workers, growing task
//      pools, the event workloads' shape): the serial loop of its two
//      passes' bodies (query every task, then evaluate the hits into the
//      row slices), the same bodies under two ParallelFor regions at 4
//      threads, and the production call at 1 and 4 threads. The crossover
//      — the smallest dense pair count from which the 4-thread fan-out
//      beats the serial loop at every larger size — is
//      kMinParallelCandidatePairs.
//   3. The shard solves over sweeps of equal, complete shards of two
//      shapes: 4 tasks x 2 workers (the event workloads' pools) and 8
//      tasks x 64 workers (a fleet_100k cluster). The same columns for the
//      per-shard solve, plus KM's graph solve (MatchCandidateGraph) at 1
//      and 4 threads beside ShardedMaxWeightMatching; the crossover in
//      summed ShardCost is kMinParallelShardCost.
//   4. The CandidateIndex build and 5. BuildShardPlan over fleet-shaped
//      sweeps (64 workers per cluster, 8 per task): the production call at
//      1 and 4 threads around kMinParallelEntries / kMinParallelPlanRows.
// Every timed call follows a 200 us idle gap. Timings are host-dependent
// and only advisory in BENCH_micro_parallel.json; DESIGN.md §4d records
// the measured profile the constants come from.
//
//   build/bench/bench_micro_parallel [--json-dir=DIR]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
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
constexpr double kWeightFloorKm = 1e-3;

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
    // GenerateCandidates' two pass bodies over chunks of 64 tasks: query
    // each task, keeping the hits; then evaluate the hits into the task's
    // slice of one row array, keeping the pairs that matter.
    constexpr size_t kChunk = 64;
    const size_t chunks = (batch.tasks.size() + kChunk - 1) / kChunk;
    std::vector<std::vector<int>> chunk_hits(chunks);
    std::vector<uint32_t> first(batch.tasks.size() + 1);
    std::vector<TaskCandidate> rows;
    auto query = [&](size_t c) {
      thread_local std::vector<int> hits;
      thread_local CandidateIndex::QueryScratch scratch;
      chunk_hits[c].clear();
      const size_t end = std::min(batch.tasks.size(), (c + 1) * kChunk);
      for (size_t t = c * kChunk; t < end; ++t) {
        const SpatialTask& task = batch.tasks[t];
        index.QueryWorkers(task.location,
                           index.PruneRadius(task, kMatchRadiusKm, kNowMin),
                           hits, &scratch);
        chunk_hits[c].insert(chunk_hits[c].end(), hits.begin(), hits.end());
        first[t + 1] = static_cast<uint32_t>(hits.size());
      }
    };
    auto offsets = [&] {
      for (size_t t = 1; t < first.size(); ++t) first[t] += first[t - 1];
      rows.resize(first.back());
    };
    auto evaluate = [&](size_t c) {
      const int* hit = chunk_hits[c].data();
      const size_t end = std::min(batch.tasks.size(), (c + 1) * kChunk);
      for (size_t t = c * kChunk; t < end; ++t) {
        TaskCandidate* row = rows.data() + first[t];
        for (uint32_t k = first[t]; k < first[t + 1]; ++k) {
          const int w = *hit++;
          CandidateInfo info = tamp::assign::EvaluateCandidate(
              batch.tasks[t], batch.workers[static_cast<size_t>(w)],
              kMatchRadiusKm, kNowMin);
          if (info.b_count > 0 || info.stage3_feasible) {
            info.worker = w;
            *row++ = info;
          }
        }
      }
    };
    auto serial_call = [&] {
      for (size_t c = 0; c < chunks; ++c) query(c);
      offsets();
      for (size_t c = 0; c < chunks; ++c) evaluate(c);
    };
    auto fanout = [&] {
      tamp::ParallelFor(chunks, query);
      offsets();
      tamp::ParallelFor(chunks, evaluate);
    };
    auto site = [&] {
      std::optional<CandidateIndex> copy(index);
      (void)tamp::assign::GenerateCandidates(batch.tasks, batch.workers,
                                             kMatchRadiusKm, kNowMin, copy);
    };

    tamp::SetParallelThreadCount(1);
    const double serial = MeanSeconds(serial_call);
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
      "\n== Shard solves, %d x %d shards: mean us per call ==\n"
      "%7s %8s %9s %9s %9s %9s %9s %9s\n",
      shape.tasks, shape.workers, "shards", "cost", "serial", "fan_4t",
      "site_1t", "site_4t", "graph_1t", "graph_4t");
  std::vector<int64_t> sizes;
  std::vector<double> serial_s;
  std::vector<double> fanout_s;
  for (int num_shards : shape.counts) {
    tamp::Rng rng(20251019u + num_shards);
    const int num_tasks = num_shards * shape.tasks;
    const int num_workers = num_shards * shape.workers;
    // Complete bipartite blocks, one per shard: a graph row and a
    // positive edge for every (task, worker) pair inside a block, the
    // edge weighing what KM's graph solve gives the row.
    tamp::assign::CandidateGraph graph;
    graph.offsets.push_back(0);
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
          tc.min_dis = rng.Uniform(0.0, 1.0);
          tc.stage3_feasible = true;
          graph.rows.push_back(tc);
          const double weight = 1.0 / (tc.min_dis + kWeightFloorKm);
          edges.push_back({t, w, weight});
          local[static_cast<size_t>(s)].push_back({i, j, weight});
        }
        graph.offsets.push_back(static_cast<uint32_t>(graph.rows.size()));
      }
    }
    const tamp::assign::ShardPlan plan =
        tamp::assign::BuildShardPlan(graph, num_workers);
    int64_t cost = 0;
    for (const tamp::assign::Shard& shard : plan.shards) cost += shard.cost;

    std::vector<tamp::matching::MatchResult> sub(local.size());
    // The per-shard body of both solves.
    auto body = [&](size_t s) {
      thread_local tamp::matching::MatchingScratch scratch;
      tamp::matching::MaxWeightMatching(shape.tasks, shape.workers, local[s],
                                        &scratch, &sub[s]);
    };
    auto fanout = [&] { tamp::ParallelFor(local.size(), body); };
    auto site = [&] {
      (void)tamp::assign::ShardedMaxWeightMatching(num_tasks, num_workers,
                                                   edges, plan);
    };
    auto graph_site = [&] {
      (void)tamp::assign::MatchCandidateGraph(graph, plan, kWeightFloorKm);
    };

    tamp::SetParallelThreadCount(1);
    const double serial = MeanSeconds([&] {
      for (size_t s = 0; s < local.size(); ++s) body(s);
    });
    const double site_1t = MeanSeconds(site);
    const double graph_1t = MeanSeconds(graph_site);
    tamp::SetParallelThreadCount(4);
    const double fan_4t = MeanSeconds(fanout);
    const double site_4t = MeanSeconds(site);
    const double graph_4t = MeanSeconds(graph_site);

    std::printf("%7d %8lld %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f\n",
                num_shards, static_cast<long long>(cost), serial * 1e6,
                fan_4t * 1e6, site_1t * 1e6, site_4t * 1e6, graph_1t * 1e6,
                graph_4t * 1e6);
    const std::string key = "shards.t" + std::to_string(shape.tasks) + "w" +
                            std::to_string(shape.workers) + ".n" +
                            std::to_string(num_shards);
    report.AddStage(key + ".serial_s", serial);
    report.AddStage(key + ".fan_4t_s", fan_4t);
    report.AddStage(key + ".site_1t_s", site_1t);
    report.AddStage(key + ".site_4t_s", site_4t);
    report.AddStage(key + ".graph_1t_s", graph_1t);
    report.AddStage(key + ".graph_4t_s", graph_4t);
    sizes.push_back(cost);
    serial_s.push_back(serial);
    fanout_s.push_back(fan_4t);
  }
  std::printf("crossover (4-thread fan-out beats serial from): cost %lld; "
              "kMinParallelShardCost = %lld\n",
              static_cast<long long>(Crossover(sizes, serial_s, fanout_s)),
              static_cast<long long>(tamp::assign::kMinParallelShardCost));
}

/// A fleet_100k-shaped batch of `num_workers` workers, 64 to a cluster of
/// 1.4 km, clusters 100 km apart, one task per 8 workers.
Batch MakeFleet(int num_workers, uint64_t seed) {
  tamp::Rng rng(seed);
  const int clusters = std::max(1, num_workers / 64);
  int grid = 1;
  while (grid * grid < clusters) ++grid;
  auto near = [&](int c) {
    return tamp::geo::Point{100.0 * (c % grid) + rng.Uniform(-0.7, 0.7),
                            100.0 * (c / grid) + rng.Uniform(-0.7, 0.7)};
  };
  Batch batch;
  for (int w = 0; w < num_workers; ++w) {
    CandidateWorker cw;
    cw.id = w;
    cw.current_location = near(w % clusters);
    const int steps = 1 + static_cast<int>(rng.UniformInt(0, 2));
    for (int s = 1; s <= steps; ++s) {
      cw.predicted.push_back({near(w % clusters), 5.0 * s});
    }
    batch.workers.push_back(std::move(cw));
  }
  for (int t = 0; t < num_workers / 8; ++t) {
    SpatialTask task;
    task.id = t;
    task.location = near(t % clusters);
    task.deadline_min = 60.0;
    batch.tasks.push_back(task);
  }
  return batch;
}

void FleetSweep(tamp::bench::JsonReport& report) {
  std::printf(
      "\n== Fleet index build and shard plan: mean us per call ==\n"
      "%8s %8s %9s %9s %8s %9s %9s\n",
      "workers", "entries", "index_1t", "index_4t", "rows", "plan_1t",
      "plan_4t");
  for (int num_workers : {1024, 2048, 4096, 8192, 16384, 32768}) {
    const Batch batch = MakeFleet(num_workers, 20251020u + num_workers);
    std::optional<CandidateIndex> index(std::in_place, batch.workers);
    const int64_t entries = static_cast<int64_t>(index->num_points());
    const tamp::assign::CandidateGraph graph =
        tamp::assign::GenerateCandidates(batch.tasks, batch.workers,
                                         kMatchRadiusKm, 0.0, index);
    auto build_index = [&] { CandidateIndex built(batch.workers); };
    auto build_plan = [&] {
      (void)tamp::assign::BuildShardPlan(graph, num_workers);
    };
    tamp::SetParallelThreadCount(1);
    const double index_1t = MeanSeconds(build_index);
    const double plan_1t = MeanSeconds(build_plan);
    tamp::SetParallelThreadCount(4);
    const double index_4t = MeanSeconds(build_index);
    const double plan_4t = MeanSeconds(build_plan);
    std::printf("%8d %8lld %9.1f %9.1f %8zu %9.1f %9.1f\n", num_workers,
                static_cast<long long>(entries), index_1t * 1e6,
                index_4t * 1e6, graph.rows.size(), plan_1t * 1e6,
                plan_4t * 1e6);
    const std::string key = "fleet.w" + std::to_string(num_workers);
    report.AddStage(key + ".index_1t_s", index_1t);
    report.AddStage(key + ".index_4t_s", index_4t);
    report.AddStage(key + ".plan_1t_s", plan_1t);
    report.AddStage(key + ".plan_4t_s", plan_4t);
  }
  std::printf("kMinParallelEntries = %zu, kMinParallelPlanRows = %lld\n",
              tamp::geo::SpatialLabelIndex::kMinParallelEntries,
              static_cast<long long>(tamp::assign::kMinParallelPlanRows));
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
  FleetSweep(report);
  tamp::SetParallelThreadCount(0);
  return 0;
}
