// Geo-sharded assignment at fleet scale (DESIGN.md §4k): synthetic
// clustered fleets of W = 1k / 10k / 100k workers, where cluster spacing
// (~100 km) dwarfs the match radius so the candidate graph decomposes into
// one connected component per populated cluster, plus a single-hotspot
// fleet (W = 2k workers and 250 tasks in one 1-km cluster): one component,
// the adversarial shape for sharding, so one 250 x 2,000 solve. The bench
// runs KmAssign's sharded batch-assignment path call by call — spatial-
// index build, two-pass candidate generation into the flat candidate
// graph, shard-plan construction, and the parallel per-shard KM solve
// read in place from the graph — and reports assignments/second plus the
// deterministic accounting the bench gate pins: shard counts, max shard
// size, candidate rows, matched pairs, and the index's cell and entry
// counts (a grid sized by the fleets' bounding box would fail the gate).
//
// Methodology: every reported *count* is a pure function of the synthesis
// seed and thread-count-invariant (the shard plan is deterministic and the
// sharded matching is bitwise-equal to the global solve; see
// assign_sharding_test). The `_per_s` / `_s` keys are wall-clock and stay
// advisory in tamp_bench_compare. No global-solve comparison runs: at
// W = 100k one KM over the whole fleet is what sharding avoids.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "assign/candidate_index.h"
#include "assign/candidates.h"
#include "assign/sharding.h"
#include "bench_common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/run_options.h"
#include "matching/hungarian.h"

namespace tamp::bench {
namespace {

constexpr double kClusterSpacingKm = 100.0;  // >> match radius: no bridges.
constexpr double kClusterRadiusKm = 0.7;
constexpr double kHotspotRadiusKm = 0.5;  // Every pair within reach.
constexpr int kHotspotWorkers = 2000;     // And 250 tasks: one shard.
constexpr int kWorkersPerCluster = 64;
constexpr int kWorkersPerTask = 8;

struct ScaleFleet {
  std::vector<assign::SpatialTask> tasks;
  std::vector<assign::CandidateWorker> workers;
};

/// Deterministic clustered fleet: workers and tasks scatter within
/// `cluster_radius_km` of cluster centers laid out on a wide grid, so
/// feasibility never crosses clusters.
ScaleFleet SynthesizeFleet(int num_workers, int num_clusters,
                           double cluster_radius_km, uint64_t seed) {
  Rng rng(seed);
  const int grid = 1 + static_cast<int>(std::sqrt(
                           static_cast<double>(num_clusters - 1)));
  auto center = [&](int cluster) -> geo::Point {
    return {kClusterSpacingKm * static_cast<double>(cluster % grid),
            kClusterSpacingKm * static_cast<double>(cluster / grid)};
  };
  auto jitter = [&](geo::Point c) -> geo::Point {
    return {c.x + rng.Uniform(-cluster_radius_km, cluster_radius_km),
            c.y + rng.Uniform(-cluster_radius_km, cluster_radius_km)};
  };

  ScaleFleet fleet;
  fleet.workers.reserve(static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    assign::CandidateWorker worker;
    worker.id = w;
    worker.current_location = jitter(center(w % num_clusters));
    // A couple of predicted points near the cluster, minutes ahead: the
    // Theorem-2 evaluation sees a realistic short trajectory.
    const int steps = 1 + static_cast<int>(rng.UniformInt(0, 2));
    for (int s = 1; s <= steps; ++s) {
      worker.predicted.push_back(
          {jitter(center(w % num_clusters)), 5.0 * static_cast<double>(s)});
    }
    worker.matching_rate = rng.Uniform(0.2, 0.9);
    fleet.workers.push_back(std::move(worker));
  }
  const int num_tasks = std::max(1, num_workers / kWorkersPerTask);
  fleet.tasks.reserve(static_cast<size_t>(num_tasks));
  for (int t = 0; t < num_tasks; ++t) {
    assign::SpatialTask task;
    task.id = t;
    task.location = jitter(center(t % num_clusters));
    task.release_time_min = 0.0;
    task.deadline_min = 60.0;
    fleet.tasks.push_back(std::move(task));
  }
  return fleet;
}

struct ScaleResult {
  int64_t index_cells = 0;
  int64_t index_entries = 0;
  int64_t candidate_evals = 0;
  int64_t rows = 0;
  int64_t shard_count = 0;
  int64_t shard_max_rows = 0;
  int64_t matched = 0;
  double index_s = 0.0;
  double candidates_s = 0.0;
  double plan_s = 0.0;
  double solve_s = 0.0;
  double total_s = 0.0;
};

/// KM's path, call by call as KmAssign makes it (its weight rule
/// included), with a clock per stage.
ScaleResult RunScale(const ScaleFleet& fleet, double match_radius_km) {
  constexpr double kWeightFloorKm = 1e-3;  // KmAssign's default.
  ScaleResult r;
  Stopwatch total_watch;

  Stopwatch index_watch;
  std::optional<assign::CandidateIndex> index(std::in_place, fleet.workers);
  r.index_s = index_watch.ElapsedSeconds();
  r.index_cells = static_cast<int64_t>(index->num_cells());
  r.index_entries = static_cast<int64_t>(index->num_points());

  Stopwatch cand_watch;
  assign::CandidateGenStats stats;
  const assign::CandidateGraph graph =
      assign::GenerateCandidates(fleet.tasks, fleet.workers, match_radius_km,
                                 /*now_min=*/0.0, index, &stats);
  r.candidates_s = cand_watch.ElapsedSeconds();
  r.candidate_evals = stats.evaluated;

  Stopwatch plan_watch;
  const assign::ShardPlan plan = assign::BuildShardPlan(
      graph, static_cast<int>(fleet.workers.size()));
  r.plan_s = plan_watch.ElapsedSeconds();
  r.rows = plan.total_rows;
  r.shard_count = static_cast<int64_t>(plan.shards.size());
  r.shard_max_rows = plan.max_rows;

  Stopwatch solve_watch;
  const matching::MatchResult match =
      assign::MatchCandidateGraph(graph, plan, kWeightFloorKm);
  r.solve_s = solve_watch.ElapsedSeconds();
  r.matched = static_cast<int64_t>(match.pairs.size());

  r.total_s = total_watch.ElapsedSeconds();
  return r;
}

int ScaleBenchMain(int argc, char** argv) {
  core::RunOptions options;
  BenchScale scale;
  options.sim = BasePipelineConfig(scale).sim;
  Status status = core::ParseRunFlags(argc, argv, &options);
  if (status.code() == StatusCode::kFailedPrecondition) {
    std::cout << "scale: sharded batch assignment over synthetic clustered"
                 " fleets (W = 1k/10k/100k, and a 2k single hotspot)\n\n"
                 "flags:\n"
              << status.message();
    return 0;
  }
  if (status.ok()) status = options.Validate();
  if (!status.ok()) {
    std::cerr << "scale: " << status.ToString() << "\n";
    return 1;
  }
  core::ApplyRunOptions(options);
  {
    JsonReport report("scale", options.sinks.bench_json_dir);
    // The gated numbers are the explicit per-fleet counts below; obs
    // counters would only duplicate them accumulated across fleets.
    report.IncludeObs(false);
    std::cout << "=== Geo-sharded assignment at fleet scale ===\n";
    TablePrinter table({"fleet", "workers", "tasks", "cells", "rows",
                       "shards", "max_rows", "matched", "assign/s"});
    struct FleetSpec {
      std::string name;
      int workers;
      int clusters;
      double cluster_radius_km;
      uint64_t seed;
    };
    std::vector<FleetSpec> specs;
    for (int num_workers : {1000, 10000, 100000}) {
      std::string name = "w";
      name += std::to_string(num_workers);
      specs.push_back({name, num_workers,
                       std::max(1, num_workers / kWorkersPerCluster),
                       kClusterRadiusKm,
                       7000 + static_cast<uint64_t>(num_workers)});
    }
    specs.push_back(
        {"hotspot", kHotspotWorkers, 1, kHotspotRadiusKm, 9000});
    for (const FleetSpec& spec : specs) {
      const std::string& name = spec.name;
      ScaleFleet fleet = SynthesizeFleet(spec.workers, spec.clusters,
                                         spec.cluster_radius_km, spec.seed);
      ScaleResult r = RunScale(fleet, options.sim.match_radius_km);
      const double assign_per_s =
          r.total_s > 0.0 ? static_cast<double>(r.matched) / r.total_s : 0.0;
      // Deterministic accounting (gated bitwise by tools/check.sh).
      report.AddMetric(name + ".candidate_evals",
                       static_cast<double>(r.candidate_evals));
      report.AddMetric(name + ".rows", static_cast<double>(r.rows));
      report.AddMetric(name + ".shard_count",
                       static_cast<double>(r.shard_count));
      report.AddMetric(name + ".shard_max_rows",
                       static_cast<double>(r.shard_max_rows));
      report.AddMetric(name + ".matched", static_cast<double>(r.matched));
      report.AddMetric(name + ".index_cells",
                       static_cast<double>(r.index_cells));
      report.AddMetric(name + ".index_entries",
                       static_cast<double>(r.index_entries));
      // Advisory (machine-dependent): throughput and the stage clocks.
      report.AddMetric(name + ".assign_per_s", assign_per_s);
      report.AddStage(name + ".index_s", r.index_s);
      report.AddStage(name + ".candidates_s", r.candidates_s);
      report.AddStage(name + ".plan_s", r.plan_s);
      report.AddStage(name + ".solve_s", r.solve_s);
      report.AddStage(name + "_s", r.total_s);
      table.AddRow({name, std::to_string(spec.workers),
                    Fmt(static_cast<int64_t>(fleet.tasks.size())),
                    Fmt(r.index_cells), Fmt(r.rows), Fmt(r.shard_count),
                    Fmt(r.shard_max_rows), Fmt(r.matched),
                    Fmt(assign_per_s, 0)});
    }
    table.Print(std::cout);
    std::cout << "\nCSV:\n";
    table.PrintCsv(std::cout);
  }
  status = core::WriteRunArtifacts(options);
  if (!status.ok()) {
    std::cerr << "scale: " << status.ToString() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace tamp::bench

int main(int argc, char** argv) {
  return tamp::bench::ScaleBenchMain(argc, argv);
}
