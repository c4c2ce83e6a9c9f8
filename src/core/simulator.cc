#include "core/simulator.h"

#include <cctype>
#include <deque>
#include <optional>
#include <string>

#include "assign/bounds.h"
#include "assign/km_assigner.h"
#include "common/check.h"
#include "common/obs/metrics.h"
#include "common/obs/trace.h"
#include "common/stopwatch.h"
#include "core/rollout.h"
#include "geo/trajectory.h"

namespace tamp::core {

std::string_view AssignMethodName(AssignMethod method) {
  switch (method) {
    case AssignMethod::kUpperBound:
      return "UB";
    case AssignMethod::kLowerBound:
      return "LB";
    case AssignMethod::kKm:
      return "KM";
    case AssignMethod::kPpi:
      return "PPI";
    case AssignMethod::kGgpso:
      return "GGPSO";
  }
  return "?";
}

const std::vector<AssignMethod>& AllAssignMethods() {
  static const std::vector<AssignMethod> kAll = {
      AssignMethod::kUpperBound, AssignMethod::kLowerBound, AssignMethod::kKm,
      AssignMethod::kPpi, AssignMethod::kGgpso};
  return kAll;
}

StatusOr<AssignMethod> ParseAssignMethod(std::string_view name) {
  std::string upper(name);
  for (char& c : upper) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  for (AssignMethod method : AllAssignMethods()) {
    if (upper == AssignMethodName(method)) return method;
  }
  std::string accepted;
  for (AssignMethod method : AllAssignMethods()) {
    if (!accepted.empty()) accepted += ", ";
    accepted += AssignMethodName(method);
  }
  return Status::InvalidArgument("unknown assignment method '" +
                                 std::string(name) + "' (accepted: " +
                                 accepted + ")");
}

size_t PurgeExpiredTasks(std::deque<assign::SpatialTask>& pool,
                         double now_min) {
  // One linear pass; the old restart-from-begin scan-erase loop was
  // O(pool^2) per batch when a backlog expired at once.
  return std::erase_if(pool, [now_min](const assign::SpatialTask& task) {
    return task.deadline_min <= now_min;
  });
}

BatchAssignStep::BatchAssignStep(const data::Workload& workload,
                                 const nn::EncoderDecoder& model,
                                 const SimulatorConfig& config,
                                 std::nullptr_t)
    : workload_(workload), config_(config), batched_model_(model.config()) {
  // The observation window length matches the training seq_in: infer it
  // from the first learning task if available.
  if (!workload_.learning_tasks.empty() &&
      !workload_.learning_tasks.front().support.empty()) {
    observe_steps_ = static_cast<int>(
        workload_.learning_tasks.front().support.front().input.size());
  } else if (!workload_.learning_tasks.empty() &&
             !workload_.learning_tasks.front().eval.empty()) {
    observe_steps_ = static_cast<int>(
        workload_.learning_tasks.front().eval.front().input.size());
  }
}

BatchAssignStep::Outcome BatchAssignStep::Step(
    AssignMethod method, const std::vector<WorkerPredictor>& predictors,
    double now, const std::deque<assign::SpatialTask>& pool,
    const std::vector<int>& available) {
  // Per-batch visibility (DESIGN.md §4e): batch counts, pool/candidate
  // depths, and the forecast vs assignment split of each batch's time.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& batches_counter = registry.GetCounter("sim.batches");
  static obs::Counter& assignments_counter =
      registry.GetCounter("sim.assignments");
  static obs::Counter& accepted_counter = registry.GetCounter("sim.accepted");
  static obs::Histogram& pool_depth_hist =
      registry.GetHistogram("sim.pool_depth", obs::CountEdges());
  static obs::Histogram& available_hist =
      registry.GetHistogram("sim.available_workers", obs::CountEdges());
  static obs::Histogram& forecast_hist =
      registry.GetHistogram("sim.forecast_s", obs::DurationEdgesSeconds());
  static obs::Histogram& assign_hist =
      registry.GetHistogram("sim.assign_s", obs::DurationEdgesSeconds());

  TAMP_DCHECK(!pool.empty());
  TAMP_DCHECK(!available.empty());
  const auto& workers = workload_.workers;

  obs::TraceSpan batch_span("sim.batch");
  batches_counter.Increment();
  pool_depth_hist.Record(static_cast<double>(pool.size()));
  available_hist.Record(static_cast<double>(available.size()));

  // Build the batch views. The autoregressive forecast dominates this
  // block: a plain loop collects each worker's recent observations (a few
  // microseconds — less than opening a pool region), then ONE fleet-wide
  // SoA rollout forecasts every row in one region.
  std::vector<assign::SpatialTask> batch_tasks(pool.begin(), pool.end());
  std::vector<assign::CandidateWorker> batch_workers(available.size());
  std::vector<geo::Trajectory> real_futures(available.size());
  double horizon_min =
      config_.prediction_horizon_steps * config_.sample_period_min;
  const bool predicts = method == AssignMethod::kKm ||
                        method == AssignMethod::kPpi ||
                        method == AssignMethod::kGgpso;
  if (predicts) {
    forecast_params_.resize(available.size());
    forecast_recents_.resize(available.size());
  }
  Stopwatch forecast_watch;
  std::optional<obs::TraceSpan> forecast_span(std::in_place, "sim.forecast");
  for (size_t a = 0; a < available.size(); ++a) {
    const size_t wi = static_cast<size_t>(available[a]);
    const data::WorkerRecord& record = workers[wi];
    assign::CandidateWorker cw;
    cw.id = record.id;
    cw.current_location = record.test.PositionAt(now);
    cw.detour_budget_km = record.detour_budget_km;
    cw.speed_kmpm = record.speed_kmpm;
    cw.matching_rate = predictors[wi].matching_rate;
    if (predicts) {
      TAMP_CHECK(predictors[wi].params != nullptr);
      // Recent observed positions (platform-visible location reports),
      // into the persistent per-slot buffer.
      std::vector<geo::Point>& recent = forecast_recents_[a];
      recent.clear();
      for (int s = observe_steps_ - 1; s >= 0; --s) {
        recent.push_back(
            record.test.PositionAt(now - s * config_.sample_period_min));
      }
      forecast_params_[a] = predictors[wi].params;
    }
    batch_workers[a] = std::move(cw);
    // The oracle's and the acceptance test's view of reality.
    real_futures[a] = record.test.Slice(now, now + horizon_min);
  }
  if (predicts) {
    // The fleet-level forecast call: one batched rollout (one parallel
    // region) for every row, reusing the engine scratch across batches.
    // core::RolloutPredict, the per-worker scalar chain, is its oracle in
    // nn_batched_forecast_test.
    RolloutPredictBatch(batched_model_, forecast_params_, forecast_recents_,
                        workload_.grid, config_.prediction_horizon_steps, now,
                        config_.sample_period_min, forecast_scratch_,
                        &forecast_out_);
    for (size_t a = 0; a < available.size(); ++a) {
      batch_workers[a].predicted = std::move(forecast_out_[a]);
    }
  }
  forecast_span.reset();
  forecast_hist.Record(forecast_watch.ElapsedSeconds());

  // Run the assignment algorithm (timed: this is the reported runtime).
  Stopwatch watch;
  std::optional<obs::TraceSpan> assign_span(std::in_place, "sim.assign");
  assign::AssignmentPlan plan;
  switch (method) {
    case AssignMethod::kUpperBound:
      plan = assign::UpperBoundAssign(batch_tasks, batch_workers, real_futures,
                                      now);
      break;
    case AssignMethod::kLowerBound:
      plan = assign::LowerBoundAssign(batch_tasks, batch_workers, now);
      break;
    case AssignMethod::kKm:
      plan = assign::KmAssign(batch_tasks, batch_workers, now,
                              config_.match_radius_km,
                              /*weight_floor_km=*/1e-3);
      break;
    case AssignMethod::kPpi: {
      assign::PpiConfig ppi = config_.ppi;
      ppi.match_radius_km = config_.match_radius_km;
      plan = assign::PpiAssign(batch_tasks, batch_workers, now, ppi);
      break;
    }
    case AssignMethod::kGgpso: {
      assign::GgpsoConfig ggpso = config_.ggpso;
      ggpso.match_radius_km = config_.match_radius_km;
      plan = assign::GgpsoAssign(batch_tasks, batch_workers, now, ggpso);
      break;
    }
  }
  assign_span.reset();

  Outcome outcome;
  outcome.assignments = static_cast<int>(plan.pairs.size());
  outcome.assign_seconds = watch.ElapsedSeconds();
  assign_hist.Record(outcome.assign_seconds);

  // Worker decisions against reality (step 3 of the framework): accept
  // iff the real detour fits w.d and the deadline is met.
  for (const assign::AssignmentPair& pair : plan.pairs) {
    const assign::SpatialTask& task =
        batch_tasks[static_cast<size_t>(pair.task_index)];
    int w = available[static_cast<size_t>(pair.worker_index)];
    const data::WorkerRecord& record = workers[static_cast<size_t>(w)];
    auto visit = geo::PlanTaskVisit(
        real_futures[static_cast<size_t>(pair.worker_index)], task.location,
        record.speed_kmpm, task.deadline_min);
    bool accepts =
        visit.has_value() && visit->detour_km <= record.detour_budget_km;
    // Rejected: the task stays pooled and carries over to the next batch
    // (Section IV-B).
    if (!accepts) continue;
    Accepted accepted;
    accepted.worker = w;
    accepted.task_id = task.id;
    accepted.detour_km = visit->detour_km;
    accepted.busy_until_min = now + config_.service_time_min;
    outcome.accepted.push_back(accepted);
  }
  assignments_counter.Increment(static_cast<int64_t>(plan.pairs.size()));
  accepted_counter.Increment(static_cast<int64_t>(outcome.accepted.size()));
  return outcome;
}

}  // namespace tamp::core
