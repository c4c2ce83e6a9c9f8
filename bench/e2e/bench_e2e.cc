// The repository benchmark (README.md in this directory): four workloads
// of different shape, each a batch replay of pre-generated inputs drained
// as fast as the library allows, measured from outside the library. Only
// public library calls run inside the timed regions; the spans opened here
// wrap those calls, so the per-layer ledger needs no change to src/.
//
//   bench_e2e --workload=<name> [--seed=N] [--threads=N] [--seconds=S]
//             [--trace=PATH]
//   bench_e2e --list-metrics
//
// Untraced, it prints every end-to-end metric as `workload metric value
// unit`. With --trace it instead runs the setup and the measured phase at
// --threads and at 1 thread with span recording on, prints every
// per-layer metric the same way and writes the ledger table to PATH. Both
// modes end with the `attempted` and `failed` op counts and exit 1 when
// any output check failed.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "assign/candidate_index.h"
#include "assign/candidates.h"
#include "assign/km_assigner.h"
#include "assign/sharding.h"
#include "common/obs/metrics.h"
#include "common/obs/trace.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/event_sim.h"
#include "core/pipeline.h"
#include "data/tasks.h"
#include "data/workload.h"
#include "ledger.h"
#include "matching/hungarian.h"
#include "nn/encoder_decoder.h"

namespace tamp::bench::e2e {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The manifest: BENCHMARK.json lists exactly these names and units (the
// bench_e2e_manifest ctest compares them both ways).
constexpr MetricSpec kEndToEnd[] = {
    {"tasks_per_s", "tasks/s"},    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},         {"completion_ratio", "ratio"},
    {"cost_km", "km"},
};

// Self-time layers of the setup ledger (seconds per setup) and of the
// measured ledger (seconds per op). Each also gets a `<name>.speedup_4t`
// metric (1-thread / --threads time). A layer a workload never enters
// reads 0.
constexpr MetricSpec kSetupLayers[] = {
    {"data.generate_s", "s/setup"},      {"meta.train_offline_s", "s/setup"},
    {"meta.paths_s", "s/setup"},         {"similarity.factors_s", "s/setup"},
    {"cluster.game_s", "s/setup"},       {"meta.taml_s", "s/setup"},
    {"meta.fine_tune_s", "s/setup"},     {"meta.eval_s", "s/setup"},
    {"setup.warmup_s", "s/setup"},
};
constexpr MetricSpec kOpLayers[] = {
    {"core.event_self_s", "s/op"},       {"core.forecast_s", "s/op"},
    {"core.assign_s", "s/op"},           {"core.accept_s", "s/op"},
    {"geo.index_build_s", "s/op"},       {"matching.solve_s", "s/op"},
    {"assign.ppi_stages_s", "s/op"},     {"geo.fleet_index_s", "s/op"},
    {"assign.candidates_s", "s/op"},     {"assign.shard_plan_s", "s/op"},
    {"matching.shard_solve_s", "s/op"},
};

// Which layer each span counts toward. A span not listed counts toward its
// parent's layer (sim.run, ppi.assign, meta.train, assign.shard_solve, ...).
const std::map<std::string, std::string>& SetupLayerOf() {
  static const std::map<std::string, std::string> map = {
      {"bench.generate", "data.generate_s"},
      {"bench.synthesize", "data.generate_s"},
      {"bench.train_offline", "meta.train_offline_s"},
      {"meta.paths", "meta.paths_s"},
      {"meta.tree", "similarity.factors_s"},
      {"cluster.game", "cluster.game_s"},
      {"meta.taml", "meta.taml_s"},
      {"meta.fine_tune", "meta.fine_tune_s"},
      {"eval.matching_rate", "meta.eval_s"},
      {"bench.warmup", "setup.warmup_s"},
  };
  return map;
}

const std::map<std::string, std::string>& OpLayerOf() {
  static const std::map<std::string, std::string> map = {
      {"bench.replay", "core.event_self_s"},
      {"sim.batch", "core.accept_s"},
      {"sim.forecast", "core.forecast_s"},
      {"sim.assign", "core.assign_s"},
      {"km.index_build", "geo.index_build_s"},
      {"ppi.index_build", "geo.index_build_s"},
      {"km.solve", "matching.solve_s"},
      {"ppi.match", "matching.solve_s"},
      {"ppi.stage1", "assign.ppi_stages_s"},
      {"ppi.stage2", "assign.ppi_stages_s"},
      {"ppi.stage3", "assign.ppi_stages_s"},
      {"bench.km_assign", "core.assign_s"},
      {"bench.probe_index", "geo.fleet_index_s"},
      {"bench.probe_candidates", "assign.candidates_s"},
      {"bench.probe_shard_plan", "assign.shard_plan_s"},
      {"bench.probe_shard_solve", "matching.shard_solve_s"},
  };
  return map;
}

// Per-op counts from the registry and the workload (no speed-up metric).
constexpr MetricSpec kCountLayers[] = {
    {"meta.iterations", "count"},        {"meta.adapt_steps", "count"},
    {"cluster.br_rounds", "count"},      {"core.triggers", "count"},
    {"core.skip_ratio", "ratio"},        {"core.pool_depth_avg", "tasks"},
    {"core.free_workers_avg", "workers"}, {"nn.forecast_cells", "count"},
    {"nn.batched_gemm_calls", "count"},  {"assign.candidate_evals", "count"},
    {"assign.prune_ratio", "ratio"},     {"assign.rows", "count"},
    {"assign.shard_count", "count"},     {"assign.shard_max_rows", "count"},
};

// Output quality the traced run reports beside the layers.
constexpr MetricSpec kQualityLayers[] = {
    {"quality.rmse_km", "km"},
    {"quality.mr", "ratio"},
    {"quality.km_completion_ratio", "ratio"},
    {"quality.ppi_completion_ratio", "ratio"},
    {"quality.km_rejection_ratio", "ratio"},
    {"quality.ppi_rejection_ratio", "ratio"},
    {"quality.km_cost_km", "km"},
    {"quality.ppi_cost_km", "km"},
    {"quality.match_weight", "1/km"},
};

// Whole-run layer metrics.
constexpr MetricSpec kRunLayers[] = {
    {"setup.unattributed_s", "s/setup"}, {"core.op_s", "s/op"},
    {"unattributed_s", "s/op"},          {"core.trigger_p50_ms", "ms"},
    {"core.trigger_p99_ms", "ms"},       {"trace_overhead", "ratio"},
};

using MetricList = std::span<const MetricSpec>;
// Self-time layers (with a speed-up each), then the plain per-layer values.
constexpr MetricList kTimedLayers[] = {kSetupLayers, kOpLayers};
constexpr MetricList kPlainLayers[] = {kCountLayers, kQualityLayers,
                                       kRunLayers};

// -------------------------------------------------------------------------
// Workloads.
// -------------------------------------------------------------------------

/// One benchmark workload: a deterministic setup, then a fixed cycle of
/// timed ops that a phase repeats until its time is up.
class Workload {
 public:
  virtual ~Workload() = default;

  /// One full setup. Returns false when its outputs differ from the first
  /// setup's (every later phase uses the first setup's outputs).
  virtual bool Setup() = 0;
  /// Ops per cycle; a phase always runs whole cycles.
  virtual int cycle() const = 0;
  /// The span RunOps opens around one op.
  virtual const char* op_span() const = 0;
  /// The span whose durations are the trigger latencies.
  virtual const char* trigger_span() const = 0;
  virtual void RunOp(int slot) = 0;
  /// Untimed per-layer probes on the input of op `slot` (traced only).
  virtual void Probe(int /*slot*/) {}
  /// Tasks one op of `slot` handles.
  virtual int64_t tasks(int slot) const = 0;
  /// Checks every op run since the previous call; returns how many failed.
  virtual int64_t CheckOps() = 0;
  /// End-to-end quality (completion_ratio, cost_km) and the quality.*
  /// and probe-count layer values, from the checked reference ops.
  virtual std::map<std::string, double> Values() const = 0;
};

// The calibrated paper-scale city (24 workers, 3 training days, 700 tasks
// a day), as the figure benches use it. Its seed is fixed, so the workers,
// their history and their trained models are the same in every run.
data::WorkloadConfig CityConfig(const data::WorkloadSpec& spec) {
  data::WorkloadConfig config;
  config.kind = spec.kind;
  // The surge's festival crowd is added by FestivalBurst, so that every
  // replayed day carries the same one.
  config.scenario = spec.scenario == data::WorkloadScenario::kSurge
                        ? data::WorkloadScenario::kBaseline
                        : spec.scenario;
  config.num_workers = 24;
  config.num_train_days = 3;
  config.num_tasks = 700;
  config.num_historical_tasks = 1500;
  config.detour_budget_km = 4.0;
  config.seed = spec.kind == data::WorkloadKind::kPortoDidi ? 20250707
                                                            : 20250708;
  return config;
}

core::PipelineConfig EventPipelineConfig() {
  core::PipelineConfig config;
  config.trainer.model.hidden_dim = 16;
  config.trainer.meta.iterations = 25;
  config.trainer.fine_tune_steps = 60;
  config.trainer.projection_dim = 16;
  config.trainer.tree.game.k = 3;
  config.trainer.tree.thresholds = {0.9, 0.9};
  config.sim.prediction_horizon_steps = 4;
  config.sim.match_radius_km = 0.5;
  config.ta_loss.kappa = 0.3;
  config.ta_loss.delta = 0.7;
  config.ta_loss.dq_km = 1.5;
  config.use_ta_loss = true;
  config.meta_algorithm = meta::MetaAlgorithm::kGttaml;
  return config;
}

/// The test day's task stream settings, as data::GenerateWorkload uses
/// them for the calibrated day.
data::TaskStreamConfig DayStream(const data::WorkloadConfig& config) {
  const double test_day_min = 1440.0 * config.num_train_days;
  data::TaskStreamConfig stream;
  stream.num_tasks = config.num_tasks;
  stream.horizon_start_min = test_day_min + config.day.day_start_min;
  stream.horizon_end_min = test_day_min + config.day.day_end_min;
  stream.valid_lo_units = config.task_valid_lo_units;
  stream.valid_hi_units = config.task_valid_hi_units;
  stream.time_unit_min = config.time_unit_min;
  return stream;
}

/// porto_surge's festival crowd: extra tasks released in a short window
/// around the densest hotspot, drawn as data::GenerateWorkload's surge
/// scenario draws them but from the fixed city seed.
std::vector<assign::SpatialTask> FestivalBurst(
    const data::Workload& city, const data::WorkloadConfig& config) {
  const data::TaskHotspot* densest = &city.hotspots.front();
  for (const data::TaskHotspot& h : city.hotspots) {
    if (h.weight > densest->weight) densest = &h;
  }
  data::TaskStreamConfig burst = DayStream(config);
  const double span = burst.horizon_end_min - burst.horizon_start_min;
  burst.num_tasks =
      static_cast<int>(config.surge.extra_task_factor * config.num_tasks);
  burst.horizon_start_min += config.surge.start_fraction * span;
  burst.horizon_end_min =
      burst.horizon_start_min + config.surge.duration_fraction * span;
  burst.rush_amplitude = 0.0;
  Rng rng(config.seed ^ 0x5CE7A210C0DEull);
  return data::GenerateTaskStream(
      burst, {{densest->center, config.surge.hotspot_spread_km, 1.0}},
      city.grid, rng);
}

/// Merges two release-ordered task streams and renumbers the ids.
std::vector<assign::SpatialTask> Merge(
    const std::vector<assign::SpatialTask>& a,
    const std::vector<assign::SpatialTask>& b) {
  std::vector<assign::SpatialTask> merged;
  std::merge(a.begin(), a.end(), b.begin(), b.end(),
             std::back_inserter(merged),
             [](const assign::SpatialTask& x, const assign::SpatialTask& y) {
               return x.release_time_min < y.release_time_min;
             });
  for (size_t i = 0; i < merged.size(); ++i) {
    merged[i].id = static_cast<int>(i);
  }
  return merged;
}

struct ReplayResult {
  core::SimMetrics metrics;
  core::EventStats stats;
};

/// Everything but the wall-clock `assign_seconds`.
bool SameMetrics(const core::SimMetrics& a, const core::SimMetrics& b) {
  return a.total_tasks == b.total_tasks && a.assignments == b.assignments &&
         a.accepted == b.accepted && a.completed == b.completed &&
         a.dropouts == b.dropouts && a.total_cost_km == b.total_cost_km;
}

bool SameStats(const core::EventStats& a, const core::EventStats& b) {
  return a.events == b.events && a.task_arrivals == b.task_arrivals &&
         a.task_expiries == b.task_expiries &&
         a.worker_logins == b.worker_logins &&
         a.worker_completions == b.worker_completions &&
         a.assign_triggers == b.assign_triggers &&
         a.worker_logouts == b.worker_logouts && a.dropouts == b.dropouts;
}

bool SameTasks(const std::vector<assign::SpatialTask>& a,
               const std::vector<assign::SpatialTask>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].location.x != b[i].location.x ||
        a[i].location.y != b[i].location.y ||
        a[i].release_time_min != b[i].release_time_min ||
        a[i].deadline_min != b[i].deadline_min) {
      return false;
    }
  }
  return true;
}

/// The event-accounting invariants every replay must satisfy.
bool Conserves(const ReplayResult& r, int64_t stream_size) {
  const core::EventStats& s = r.stats;
  const core::SimMetrics& m = r.metrics;
  return s.events == s.task_arrivals + s.task_expiries + s.worker_logins +
                         s.worker_completions + s.assign_triggers +
                         s.worker_logouts &&
         s.worker_logins == s.worker_logouts &&
         s.worker_completions == m.accepted &&
         m.accepted == m.completed + m.dropouts &&
         s.dropouts == m.dropouts && m.total_tasks == stream_size &&
         s.task_arrivals >= stream_size &&
         s.task_arrivals <= stream_size + s.dropouts;
}

/// porto, porto_surge, gowalla_churn: city generation plus offline
/// training, then timed KM and PPI replays of days drawn from --seed
/// through the event simulator. The calibrated day is replayed untimed for
/// the quality metrics.
class EventWorkload : public Workload {
 public:
  EventWorkload(const data::WorkloadSpec& spec, int days, uint64_t seed)
      : config_(CityConfig(spec)),
        surge_(spec.scenario == data::WorkloadScenario::kSurge),
        seed_(seed),
        pending_(2 * static_cast<size_t>(days)),
        reference_(2 * static_cast<size_t>(days)) {}

  bool Setup() override {
    // Every day keeps the city's workers and festival crowd and draws its
    // regular demand (and dropout draws) from --seed.
    data::Workload calibrated;
    std::vector<data::Workload> days;
    {
      obs::TraceSpan span("bench.generate");
      calibrated = data::GenerateWorkload(config_);
      std::vector<assign::SpatialTask> burst;
      if (surge_) burst = FestivalBurst(calibrated, config_);
      Rng rng(seed_);
      for (int slot = 0; slot < cycle(); slot += 2) {
        data::Workload day = calibrated;
        std::vector<assign::SpatialTask> stream = data::GenerateTaskStream(
            DayStream(config_), calibrated.hotspots, calibrated.grid, rng);
        if (surge_) {
          // The festival afternoon (the crowd and the regular tasks released
          // while it is pooled) is the city's on every day: the solve cost
          // grows with the cube of the pool, and a redrawn afternoon moved a
          // replay by up to 40%.
          const double from = burst.front().release_time_min;
          const double to = burst.back().deadline_min;
          auto inside = [&](const assign::SpatialTask& t) {
            return t.release_time_min >= from && t.release_time_min <= to;
          };
          std::erase_if(stream, inside);
          std::vector<assign::SpatialTask> afternoon;
          std::copy_if(calibrated.task_stream.begin(),
                       calibrated.task_stream.end(),
                       std::back_inserter(afternoon), inside);
          stream = Merge(stream, afternoon);
        }
        day.task_stream = Merge(stream, burst);
        if (day.dropout.prob > 0.0) day.dropout.seed = rng.Next();
        days.push_back(std::move(day));
      }
      calibrated.task_stream = Merge(calibrated.task_stream, burst);
    }
    auto pipeline =
        std::make_unique<core::TampPipeline>(EventPipelineConfig());
    core::OfflineResult offline;
    {
      obs::TraceSpan span("bench.train_offline");
      offline = pipeline->TrainOffline(calibrated);
    }
    if (pipeline_ != nullptr) {
      for (size_t d = 0; d < days.size(); ++d) {
        if (!SameTasks(days[d].task_stream, days_[d].task_stream)) {
          return false;
        }
      }
      return offline.models.worker_params == offline_.models.worker_params &&
             offline.eval.aggregate.rmse_km == offline_.eval.aggregate.rmse_km;
    }
    calibrated_ = std::move(calibrated);
    days_ = std::move(days);
    pipeline_ = std::move(pipeline);
    offline_ = std::move(offline);
    predictors_.resize(calibrated_.workers.size());
    for (size_t w = 0; w < predictors_.size(); ++w) {
      predictors_[w].params = &offline_.models.worker_params[w];
      predictors_[w].matching_rate =
          offline_.eval.per_worker[w].matching_rate;
    }
    return true;
  }

  // Slot 2d replays day d with KM, slot 2d + 1 with PPI.
  int cycle() const override { return static_cast<int>(pending_.size()); }
  const char* op_span() const override { return "bench.replay"; }
  const char* trigger_span() const override { return "sim.batch"; }

  void RunOp(int slot) override {
    const data::Workload& day = days_[slot / 2];
    const core::SimulatorConfig& sim_config = pipeline_->config().sim;
    nn::EncoderDecoder model(pipeline_->config().trainer.model);
    core::BatchAssignStep step(day, model, sim_config, nullptr);
    core::EventSimulator sim(day, sim_config, step);
    // The trigger schedule BatchSimulator::Run uses: one per batch window
    // from the first release to the last deadline.
    double end_min = 0.0;
    for (const assign::SpatialTask& task : day.task_stream) {
      end_min = std::max(end_min, task.deadline_min);
    }
    for (double now = day.task_stream.front().release_time_min;
         now <= end_min; now += sim_config.batch_window_min) {
      sim.ScheduleAssignTrigger(now);
    }
    ReplayResult result;
    result.metrics = sim.Run(kMethods[slot % 2], predictors_);
    result.stats = sim.stats();
    pending_[slot].push_back(result);
  }

  int64_t tasks(int slot) const override {
    return static_cast<int64_t>(days_[slot / 2].task_stream.size());
  }

  int64_t CheckOps() override {
    int64_t failed = 0;
    for (int slot = 0; slot < cycle(); ++slot) {
      for (const ReplayResult& r : pending_[slot]) {
        if (!reference_[slot]) {
          reference_[slot] = r;
          // Once per method, untimed: the library's own online stage must
          // reach the same outcome as the replay driven from here, and it
          // gives the quality of the calibrated day.
          if (slot < 2) {
            online_ok_[slot] = SameMetrics(
                r.metrics,
                pipeline_->RunOnline(days_[0], offline_, kMethods[slot]));
            quality_[slot] =
                pipeline_->RunOnline(calibrated_, offline_, kMethods[slot]);
          }
        }
        const bool ok = online_ok_[slot % 2] && Conserves(r, tasks(slot)) &&
                        SameMetrics(r.metrics, reference_[slot]->metrics) &&
                        SameStats(r.stats, reference_[slot]->stats);
        if (!ok) ++failed;
      }
      pending_[slot].clear();
    }
    return failed;
  }

  std::map<std::string, double> Values() const override {
    const core::SimMetrics& km = quality_[0];
    const core::SimMetrics& ppi = quality_[1];
    return {
        {"completion_ratio",
         (km.CompletionRatio() + ppi.CompletionRatio()) / 2.0},
        {"cost_km", (km.AvgCostKm() + ppi.AvgCostKm()) / 2.0},
        {"quality.rmse_km", offline_.eval.aggregate.rmse_km},
        {"quality.mr", offline_.eval.aggregate.matching_rate},
        {"quality.km_completion_ratio", km.CompletionRatio()},
        {"quality.ppi_completion_ratio", ppi.CompletionRatio()},
        {"quality.km_rejection_ratio", km.RejectionRatio()},
        {"quality.ppi_rejection_ratio", ppi.RejectionRatio()},
        {"quality.km_cost_km", km.AvgCostKm()},
        {"quality.ppi_cost_km", ppi.AvgCostKm()},
    };
  }

 private:
  static constexpr core::AssignMethod kMethods[2] = {core::AssignMethod::kKm,
                                                     core::AssignMethod::kPpi};

  data::WorkloadConfig config_;
  bool surge_;
  uint64_t seed_;
  data::Workload calibrated_;
  std::vector<data::Workload> days_;
  std::unique_ptr<core::TampPipeline> pipeline_;
  core::OfflineResult offline_;
  std::vector<core::WorkerPredictor> predictors_;
  std::vector<std::vector<ReplayResult>> pending_;  // Per slot.
  std::vector<std::optional<ReplayResult>> reference_;
  bool online_ok_[2] = {false, false};
  core::SimMetrics quality_[2];  // KM, PPI on the calibrated day.
};

/// fleet_100k: bench_scale's clustered fleet. Cluster spacing (100 km)
/// dwarfs the match radius, so the candidate graph splits into one
/// component per cluster and the sharded solve does the work. Timed
/// batches cycle over task sets drawn from --seed; the calibrated task set
/// is assigned untimed for the quality metrics.
class FleetWorkload : public Workload {
 public:
  explicit FleetWorkload(uint64_t seed) : seed_(seed) {}

  bool Setup() override {
    Fleet fleet;
    {
      obs::TraceSpan span("bench.synthesize");
      fleet = Synthesize(seed_);
    }
    // Warm-up batches grow the solver scratch, which every later batch
    // of the process reuses.
    std::vector<assign::AssignmentPlan> warmup;
    for (int b = 0; b < kWarmupBatches; ++b) {
      obs::TraceSpan span("bench.warmup");
      warmup.push_back(Assign(fleet.task_sets[b % kTaskSets], fleet.workers));
    }
    if (!warmup_.empty()) {
      for (size_t b = 0; b < warmup.size(); ++b) {
        if (!SamePlan(warmup[b], warmup_[b])) return false;
      }
      return true;
    }
    fleet_ = std::move(fleet);
    warmup_ = std::move(warmup);
    return true;
  }

  int cycle() const override { return kTaskSets; }
  const char* op_span() const override { return "bench.km_assign"; }
  const char* trigger_span() const override { return "bench.km_assign"; }

  void RunOp(int slot) override {
    pending_.push_back({slot, Assign(fleet_.task_sets[slot], fleet_.workers)});
  }

  // The stages KmAssign runs, called one by one on the same input. Each
  // stage frees what only it needed inside its own span, as KmAssign does.
  void Probe(int slot) override {
    const std::vector<assign::SpatialTask>& tasks = fleet_.task_sets[slot];
    std::optional<assign::CandidateIndex> index;
    {
      obs::TraceSpan span("bench.probe_index");
      index.emplace(fleet_.workers);
    }
    std::vector<std::vector<assign::TaskCandidate>> table;
    std::vector<matching::Edge> edges;
    {
      obs::TraceSpan span("bench.probe_candidates");
      table = assign::GenerateCandidates(tasks, fleet_.workers,
                                         kMatchRadiusKm, kNowMin, &*index);
      index.reset();
      for (size_t t = 0; t < table.size(); ++t) {
        for (const assign::TaskCandidate& tc : table[t]) {
          if (!tc.stage3_feasible) continue;
          edges.push_back({static_cast<int>(t), tc.worker,
                           1.0 / (tc.min_dis + kWeightFloorKm)});
        }
      }
    }
    std::optional<assign::ShardPlan> plan;
    {
      obs::TraceSpan span("bench.probe_shard_plan");
      plan = assign::BuildShardPlan(table, tasks, fleet_.workers);
      table = {};
    }
    probe_rows_[slot] = static_cast<double>(plan->total_rows);
    probe_shards_[slot] = static_cast<double>(plan->shards.size());
    probe_max_rows_[slot] = static_cast<double>(plan->max_rows);
    {
      obs::TraceSpan span("bench.probe_shard_solve");
      assign::ShardedMaxWeightMatching(
          static_cast<int>(tasks.size()),
          static_cast<int>(fleet_.workers.size()), edges, *plan);
      plan.reset();
      edges = {};
    }
  }

  int64_t tasks(int slot) const override {
    return static_cast<int64_t>(fleet_.task_sets[slot].size());
  }

  int64_t CheckOps() override {
    int64_t failed = 0;
    if (!calibrated_plan_) {
      calibrated_plan_ = Assign(fleet_.calibrated, fleet_.workers);
      if (!Valid(*calibrated_plan_, fleet_.calibrated)) ++failed;
    }
    for (const auto& [slot, plan] : pending_) {
      if (!reference_[slot]) reference_[slot] = plan;
      if (!Valid(plan, fleet_.task_sets[slot]) ||
          !SamePlan(plan, *reference_[slot])) {
        ++failed;
      }
    }
    pending_.clear();
    return failed;
  }

  std::map<std::string, double> Values() const override {
    const assign::AssignmentPlan& plan = *calibrated_plan_;
    double detour = 0.0, weight = 0.0;
    for (const assign::AssignmentPair& pair : plan.pairs) {
      detour += pair.expected_detour_km;
      weight += 1.0 / (pair.expected_detour_km + kWeightFloorKm);
    }
    const double pairs = static_cast<double>(plan.pairs.size());
    double rows = 0.0, shards = 0.0, max_rows = 0.0;
    for (int slot = 0; slot < kTaskSets; ++slot) {
      rows += probe_rows_[slot] / kTaskSets;
      shards += probe_shards_[slot] / kTaskSets;
      max_rows = std::max(max_rows, probe_max_rows_[slot]);
    }
    return {
        {"completion_ratio",
         pairs / static_cast<double>(fleet_.calibrated.size())},
        {"cost_km", pairs > 0.0 ? detour / pairs : 0.0},
        {"quality.match_weight", weight},
        {"assign.rows", rows},
        {"assign.shard_count", shards},
        {"assign.shard_max_rows", max_rows},
    };
  }

 private:
  static constexpr int kWorkers = 100000;
  static constexpr int kWorkersPerCluster = 64;
  static constexpr int kWorkersPerTask = 8;
  static constexpr int kTaskSets = 2;
  static constexpr uint64_t kFleetSeed = 107000;
  static constexpr int kWarmupBatches = 2;
  static constexpr double kClusterSpacingKm = 100.0;
  static constexpr double kClusterRadiusKm = 0.7;
  static constexpr double kMatchRadiusKm = 0.5;
  static constexpr double kWeightFloorKm = 1e-3;
  static constexpr double kNowMin = 0.0;

  struct Fleet {
    std::vector<assign::CandidateWorker> workers;
    std::vector<assign::SpatialTask> calibrated;
    std::vector<std::vector<assign::SpatialTask>> task_sets;  // Timed.
  };

  /// The fleet and the calibrated task set are fixed (kFleetSeed); `seed`
  /// draws the timed task sets.
  static Fleet Synthesize(uint64_t seed) {
    const int clusters = kWorkers / kWorkersPerCluster;
    int grid = 1;
    while (grid * grid < clusters) ++grid;
    auto center = [&](int cluster) -> geo::Point {
      return {kClusterSpacingKm * static_cast<double>(cluster % grid),
              kClusterSpacingKm * static_cast<double>(cluster / grid)};
    };
    auto jitter = [&](geo::Point c, Rng& rng) -> geo::Point {
      return {c.x + rng.Uniform(-kClusterRadiusKm, kClusterRadiusKm),
              c.y + rng.Uniform(-kClusterRadiusKm, kClusterRadiusKm)};
    };
    Fleet fleet;
    Rng fleet_rng(kFleetSeed);
    fleet.workers.resize(kWorkers);
    for (int w = 0; w < kWorkers; ++w) {
      assign::CandidateWorker& worker = fleet.workers[w];
      worker.id = w;
      worker.current_location = jitter(center(w % clusters), fleet_rng);
      const int steps = 1 + static_cast<int>(fleet_rng.UniformInt(0, 2));
      for (int s = 1; s <= steps; ++s) {
        worker.predicted.push_back({jitter(center(w % clusters), fleet_rng),
                                    5.0 * static_cast<double>(s)});
      }
      worker.matching_rate = fleet_rng.Uniform(0.2, 0.9);
    }
    auto draw_tasks = [&](Rng& rng) {
      std::vector<assign::SpatialTask> tasks(kWorkers / kWorkersPerTask);
      for (size_t t = 0; t < tasks.size(); ++t) {
        tasks[t].id = static_cast<int>(t);
        tasks[t].location =
            jitter(center(static_cast<int>(t) % clusters), rng);
        tasks[t].deadline_min = 60.0;
      }
      return tasks;
    };
    fleet.calibrated = draw_tasks(fleet_rng);
    Rng task_rng(seed);
    for (int set = 0; set < kTaskSets; ++set) {
      fleet.task_sets.push_back(draw_tasks(task_rng));
    }
    return fleet;
  }

  static assign::AssignmentPlan Assign(
      const std::vector<assign::SpatialTask>& tasks,
      const std::vector<assign::CandidateWorker>& workers) {
    return assign::KmAssign(tasks, workers, kNowMin,
                            kMatchRadiusKm, kWeightFloorKm,
                            /*use_spatial_index=*/true, /*reuse=*/nullptr,
                            /*shard_components=*/true);
  }

  static bool SamePlan(const assign::AssignmentPlan& a,
                       const assign::AssignmentPlan& b) {
    if (a.pairs.size() != b.pairs.size()) return false;
    for (size_t i = 0; i < a.pairs.size(); ++i) {
      if (a.pairs[i].task_index != b.pairs[i].task_index ||
          a.pairs[i].worker_index != b.pairs[i].worker_index ||
          a.pairs[i].expected_detour_km != b.pairs[i].expected_detour_km) {
        return false;
      }
    }
    return true;
  }

  /// No task or worker twice, and every pair a stage-3-feasible candidate
  /// whose reported detour is its dis^min.
  bool Valid(const assign::AssignmentPlan& plan,
             const std::vector<assign::SpatialTask>& tasks) const {
    std::vector<char> task_used(tasks.size(), 0);
    std::vector<char> worker_used(fleet_.workers.size(), 0);
    for (const assign::AssignmentPair& pair : plan.pairs) {
      const size_t t = static_cast<size_t>(pair.task_index);
      const size_t w = static_cast<size_t>(pair.worker_index);
      if (t >= tasks.size() || w >= fleet_.workers.size()) return false;
      if (task_used[t] || worker_used[w]) return false;
      task_used[t] = worker_used[w] = 1;
      const assign::CandidateInfo info = assign::EvaluateCandidate(
          tasks[t], fleet_.workers[w], kMatchRadiusKm, kNowMin);
      if (!info.stage3_feasible ||
          info.min_dis != pair.expected_detour_km) {
        return false;
      }
    }
    return true;
  }

  uint64_t seed_;
  Fleet fleet_;
  std::vector<assign::AssignmentPlan> warmup_;
  std::vector<std::pair<int, assign::AssignmentPlan>> pending_;
  std::optional<assign::AssignmentPlan> reference_[kTaskSets];
  std::optional<assign::AssignmentPlan> calibrated_plan_;
  double probe_rows_[kTaskSets] = {};
  double probe_shards_[kTaskSets] = {};
  double probe_max_rows_[kTaskSets] = {};
};

struct WorkloadDef {
  const char* name;
  data::WorkloadSpec spec;
  int days;  // Timed days drawn from --seed; 0 = the fleet.
};

constexpr WorkloadDef kWorkloads[] = {
    {"porto",
     {data::WorkloadKind::kPortoDidi, data::WorkloadScenario::kBaseline},
     2},
    {"porto_surge",
     {data::WorkloadKind::kPortoDidi, data::WorkloadScenario::kSurge},
     1},
    {"gowalla_churn",
     {data::WorkloadKind::kGowallaFoursquare, data::WorkloadScenario::kChurn},
     2},
    {"fleet_100k", {}, 0},
};

// -------------------------------------------------------------------------
// Phases.
// -------------------------------------------------------------------------

/// One recorded stretch of the run: a setup, or a measured phase.
struct Phase {
  std::vector<std::vector<double>> op_walls;  // Per cycle slot, seconds.
  int64_t ops = 0;
  double wall_s = 0.0;
  bool setup_ok = true;
  std::map<std::string, double> counters;  // Registry deltas.
  std::vector<obs::TraceEvent> events;
  int64_t dropped_spans = 0;
};

std::map<std::string, double> Delta(const std::map<std::string, double>& a,
                                    const std::map<std::string, double>& b) {
  std::map<std::string, double> out = b;
  for (const auto& [key, value] : a) out[key] -= value;
  return out;
}

template <typename Body>
Phase Record(bool traced, Body&& body) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  const std::map<std::string, double> before =
      obs::MetricsRegistry::Global().Snapshot();
  recorder.Clear();
  if (traced) recorder.Enable();
  Phase phase;
  Stopwatch watch;
  body(phase);
  phase.wall_s = watch.ElapsedSeconds();
  recorder.Disable();
  phase.events = recorder.Snapshot();
  phase.dropped_spans = recorder.dropped();
  phase.counters =
      Delta(before, obs::MetricsRegistry::Global().Snapshot());
  return phase;
}

Phase RunSetup(Workload& workload, bool traced) {
  return Record(traced,
                [&](Phase& phase) { phase.setup_ok = workload.Setup(); });
}

/// Repeats whole op cycles until `seconds` have passed (at least one).
Phase RunOps(Workload& workload, double seconds, bool traced) {
  return Record(traced, [&](Phase& phase) {
    phase.op_walls.resize(static_cast<size_t>(workload.cycle()));
    Stopwatch watch;
    do {
      for (int slot = 0; slot < workload.cycle(); ++slot) {
        Stopwatch op_watch;
        {
          obs::TraceSpan span(workload.op_span());
          workload.RunOp(slot);
        }
        phase.op_walls[static_cast<size_t>(slot)].push_back(
            op_watch.ElapsedSeconds());
        ++phase.ops;
        if (traced) workload.Probe(slot);
      }
    } while (watch.ElapsedSeconds() < seconds);
  });
}

/// Wall of one cycle: the sum of each slot's 10th-percentile op wall.
/// Shared hosts slow a core down by up to ~1.6x for seconds to minutes at
/// a time (a fixed CPU loop shows the same two speeds); interference only
/// adds time, and a slot's median flips with the share of its ops that ran
/// slow, while its fast tail tracks the code.
double CycleWall(const Phase& phase) {
  double wall = 0.0;
  for (const std::vector<double>& walls : phase.op_walls) {
    wall += Quantile(walls, 0.10);
  }
  return wall;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Counter(const Phase& phase, const std::string& key) {
  auto it = phase.counters.find(key);
  return it == phase.counters.end() ? 0.0 : it->second;
}

/// Per-op counts of a measured phase; identical at every thread count.
std::map<std::string, double> OpCounts(const Phase& p) {
  const double ops = static_cast<double>(p.ops);
  const double evals = Counter(p, "assign.candidate_evals");
  return {
      {"core.skip_ratio", Ratio(Counter(p, "sim.batch_skips"),
                                Counter(p, "sim.ev_assign_trigger"))},
      {"core.pool_depth_avg", Ratio(Counter(p, "sim.pool_depth.sum"),
                                    Counter(p, "sim.pool_depth.count"))},
      {"core.free_workers_avg",
       Ratio(Counter(p, "sim.available_workers.sum"),
             Counter(p, "sim.available_workers.count"))},
      {"nn.forecast_cells", Counter(p, "nn.forecast_cells") / ops},
      {"nn.batched_gemm_calls", Counter(p, "nn.batched_gemm_calls") / ops},
      {"assign.candidate_evals", evals / ops},
      {"assign.prune_ratio",
       Ratio(Counter(p, "assign.candidates_pruned"),
             evals + Counter(p, "assign.candidates_pruned"))},
  };
}

std::map<std::string, double> SetupCounts(const Phase& p) {
  return {
      {"meta.iterations", Counter(p, "meta.iterations")},
      {"meta.adapt_steps", Counter(p, "meta.adapt_steps")},
      {"cluster.br_rounds", Counter(p, "cluster.br_rounds")},
  };
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void Print(const std::string& workload, const std::string& metric,
           double value, const std::string& unit) {
  std::printf("%s %s %.17g %s\n", workload.c_str(), metric.c_str(), value,
              unit.c_str());
}

/// Calls fn(name, unit) for every per-layer metric, in manifest order.
template <typename Fn>
void ForEachLayerMetric(Fn fn) {
  for (MetricList list : kTimedLayers) {
    for (const MetricSpec& s : list) {
      fn(std::string(s.name), std::string(s.unit));
      fn(std::string(s.name) + ".speedup_4t", std::string("x"));
    }
  }
  for (MetricList list : kPlainLayers) {
    for (const MetricSpec& s : list) {
      fn(std::string(s.name), std::string(s.unit));
    }
  }
}

double Get(const std::map<std::string, double>& values,
           const std::string& key) {
  auto it = values.find(key);
  return it == values.end() ? 0.0 : it->second;
}

// -------------------------------------------------------------------------
// The two modes.
// -------------------------------------------------------------------------

struct Options {
  const WorkloadDef* workload = nullptr;
  uint64_t seed = 1;
  int threads = 4;
  double seconds = 10.0;
  std::string trace_path;
};

constexpr int kSetupRepeats = 3;

/// Untraced: the end-to-end metrics. Returns the failed-op count.
int64_t RunPlain(Workload& workload, const Options& options,
                 int64_t* attempted) {
  int64_t failed = 0;
  std::vector<double> setup_walls;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Phase setup = RunSetup(workload, /*traced=*/false);
    setup_walls.push_back(setup.wall_s);
    if (!setup.setup_ok) ++failed;
  }
  const Phase ops = RunOps(workload, options.seconds, /*traced=*/false);
  failed += workload.CheckOps();
  *attempted = kSetupRepeats + ops.ops;

  int64_t cycle_tasks = 0;
  for (int slot = 0; slot < workload.cycle(); ++slot) {
    cycle_tasks += workload.tasks(slot);
  }
  const std::map<std::string, double> values = workload.Values();
  const std::map<std::string, double> e2e = {
      {"tasks_per_s",
       Ratio(static_cast<double>(cycle_tasks), CycleWall(ops))},
      {"setup_s", Quantile(setup_walls, 0.5)},
      {"peak_rss_mb", PeakRssMb()},
      {"completion_ratio", Get(values, "completion_ratio")},
      {"cost_km", Get(values, "cost_km")},
  };
  for (const MetricSpec& spec : kEndToEnd) {
    Print(options.workload->name, spec.name, Get(e2e, spec.name), spec.unit);
  }
  return failed;
}

/// The ledger table written to --trace=PATH.
void WriteLedger(const std::string& path, const std::string& workload,
                 int threads, const Ledger& setup4, const Ledger& setup1,
                 const Phase& ops4, const Ledger& run4, const Phase& ops1,
                 const Ledger& run1) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "bench_e2e: could not write " << path << "\n";
    return;
  }
  char line[256];
  auto section = [&](const char* title, MetricList layers, const Ledger& a,
                     const Ledger& b, double ops_a, double ops_b,
                     const char* rest_name) {
    std::snprintf(line, sizeof(line), "\n%s\n%-26s %9s%-3d %12s %9s %7s\n",
                  title, "layer (self time)", "s @", threads, "s @1",
                  "speedup", "share");
    os << line;
    const double wall = a.wall_s / ops_a;
    auto row = [&](const std::string& name, double x, double y) {
      std::snprintf(line, sizeof(line), "%-26s %12.6f %12.6f %9.3f %6.1f%%\n",
                    name.c_str(), x, y, Ratio(y, x), 100.0 * Ratio(x, wall));
      os << line;
    };
    double sum = 0.0;
    for (const MetricSpec& s : layers) {
      const double x = Get(a.self_s, s.name) / ops_a;
      const double y = Get(b.self_s, s.name) / ops_b;
      if (x <= 0.0 && y <= 0.0) continue;
      row(s.name, x, y);
      sum += x;
    }
    row(rest_name, a.unattributed_s / ops_a, b.unattributed_s / ops_b);
    sum += a.unattributed_s / ops_a;
    std::snprintf(line, sizeof(line), "%-26s %12.6f %12.6f (sum %.6f)\n",
                  "wall", wall, b.wall_s / ops_b, sum);
    os << line;
  };
  os << "bench_e2e ledger: " << workload << " at " << threads
     << " threads vs 1 thread\n";
  section("setup (per setup)", kSetupLayers, setup4, setup1, 1.0, 1.0,
          "setup.unattributed_s");
  section("measured phase (per op)", kOpLayers, run4, run1,
          static_cast<double>(ops4.ops), static_cast<double>(ops1.ops),
          "unattributed_s");
}

/// Traced: the per-layer metrics. Returns the failed-op count.
int64_t RunTraced(Workload& workload, const Options& options,
                  int64_t* attempted) {
  int64_t failed = 0;
  const Phase setup4 = RunSetup(workload, /*traced=*/true);
  SetParallelThreadCount(1);
  const Phase setup1 = RunSetup(workload, /*traced=*/true);
  SetParallelThreadCount(options.threads);
  failed += (setup4.setup_ok ? 0 : 1) + (setup1.setup_ok ? 0 : 1);

  const double third = options.seconds / 3.0;
  const Phase plain = RunOps(workload, third, /*traced=*/false);
  failed += workload.CheckOps();
  const Phase ops4 = RunOps(workload, third, /*traced=*/true);
  failed += workload.CheckOps();
  SetParallelThreadCount(1);
  const Phase ops1 = RunOps(workload, third, /*traced=*/true);
  failed += workload.CheckOps();
  SetParallelThreadCount(options.threads);
  *attempted = 2 + plain.ops + ops4.ops + ops1.ops;

  // Counts must not depend on the thread count, and no span may be lost.
  if (OpCounts(ops4) != OpCounts(ops1)) ++failed;
  if (SetupCounts(setup4) != SetupCounts(setup1)) ++failed;
  for (const Phase* p : {&setup4, &setup1, &ops4, &ops1}) {
    if (p->dropped_spans > 0) ++failed;
  }

  const std::string op_span = workload.op_span();
  const std::string trigger = workload.trigger_span();
  const Ledger s4 =
      BuildLedger(setup4.events, SetupLayerOf(), "", setup4.wall_s);
  const Ledger s1 =
      BuildLedger(setup1.events, SetupLayerOf(), "", setup1.wall_s);
  const Ledger r4 = BuildLedger(ops4.events, OpLayerOf(), trigger, ops4.wall_s);
  const Ledger r1 = BuildLedger(ops1.events, OpLayerOf(), trigger, ops1.wall_s);
  const double n4 = static_cast<double>(ops4.ops);
  const double n1 = static_cast<double>(ops1.ops);

  std::map<std::string, double> out = workload.Values();
  for (const auto& [key, value] : SetupCounts(setup4)) out[key] = value;
  for (const auto& [key, value] : OpCounts(plain)) out[key] = value;
  for (const MetricSpec& s : kSetupLayers) {
    out[s.name] = Get(s4.self_s, s.name);
    out[std::string(s.name) + ".speedup_4t"] =
        Ratio(Get(s1.self_s, s.name), Get(s4.self_s, s.name));
  }
  for (const MetricSpec& s : kOpLayers) {
    out[s.name] = Get(r4.self_s, s.name) / n4;
    out[std::string(s.name) + ".speedup_4t"] =
        Ratio(Get(r1.self_s, s.name) / n1, Get(r4.self_s, s.name) / n4);
  }
  double op_s = 0.0;
  for (const obs::TraceEvent& e : ops4.events) {
    if (e.name == op_span) op_s += e.dur_us * 1e-6;
  }
  out["setup.unattributed_s"] = s4.unattributed_s;
  out["core.op_s"] = op_s / n4;
  out["unattributed_s"] = r4.unattributed_s / n4;
  out["core.triggers"] = static_cast<double>(r4.samples_s.size()) / n4;
  out["core.trigger_p50_ms"] = Quantile(r4.samples_s, 0.50) * 1e3;
  out["core.trigger_p99_ms"] = Quantile(r4.samples_s, 0.99) * 1e3;
  out["trace_overhead"] = Ratio(CycleWall(ops4), CycleWall(plain)) - 1.0;

  const std::string& name = options.workload->name;
  ForEachLayerMetric([&](const std::string& metric, const std::string& unit) {
    Print(name, metric, Get(out, metric), unit);
  });
  WriteLedger(options.trace_path, name, options.threads, s4, s1, ops4, r4,
              ops1, r1);
  return failed;
}

void ListMetrics() {
  for (const MetricSpec& s : kEndToEnd) {
    std::printf("end_to_end %s %s\n", s.name, s.unit);
  }
  ForEachLayerMetric([](const std::string& name, const std::string& unit) {
    std::printf("per_layer %s %s\n", name.c_str(), unit.c_str());
  });
}

bool ParseFlag(std::string_view arg, std::string_view flag,
               std::string* value) {
  if (arg.substr(0, flag.size()) != flag) return false;
  *value = std::string(arg.substr(flag.size()));
  return true;
}

int Main(int argc, char** argv) {
  Options options;
  bool list = false;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--list-metrics") {
      list = true;
    } else if (ParseFlag(arg, "--workload=", &value)) {
      for (const WorkloadDef& def : kWorkloads) {
        if (value == def.name) options.workload = &def;
      }
      if (options.workload == nullptr) {
        std::cerr << "bench_e2e: unknown workload '" << value << "'\n";
        return 2;
      }
    } else if (ParseFlag(arg, "--seed=", &value)) {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "--threads=", &value)) {
      options.threads = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "--seconds=", &value)) {
      options.seconds = std::atof(value.c_str());
    } else if (ParseFlag(arg, "--trace=", &value)) {
      options.trace_path = value;
    } else {
      std::cerr << "bench_e2e: unknown argument '" << arg << "'\n";
      return 2;
    }
  }
  if (list) {
    ListMetrics();
    return 0;
  }
  if (options.workload == nullptr || options.threads < 1 ||
      options.seconds <= 0.0) {
    std::cerr << "usage: bench_e2e --workload=porto|porto_surge|"
                 "gowalla_churn|fleet_100k [--seed=N] [--threads=N] "
                 "[--seconds=S] [--trace=PATH] | --list-metrics\n";
    return 2;
  }
  SetParallelThreadCount(options.threads);

  std::unique_ptr<Workload> workload;
  if (options.workload->days == 0) {
    workload = std::make_unique<FleetWorkload>(options.seed);
  } else {
    workload = std::make_unique<EventWorkload>(
        options.workload->spec, options.workload->days, options.seed);
  }
  int64_t attempted = 0;
  const int64_t failed =
      options.trace_path.empty()
          ? RunPlain(*workload, options, &attempted)
          : RunTraced(*workload, options, &attempted);
  std::printf("%s attempted %lld ops\n", options.workload->name,
              static_cast<long long>(attempted));
  std::printf("%s failed %lld ops\n", options.workload->name,
              static_cast<long long>(failed));
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace tamp::bench::e2e

int main(int argc, char** argv) { return tamp::bench::e2e::Main(argc, argv); }
