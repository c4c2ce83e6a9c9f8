#pragma once

#include <cstddef>
#include <deque>
#include <string_view>
#include <vector>

#include "assign/ggpso.h"
#include "assign/ppi.h"
#include "assign/types.h"
#include "common/status.h"
#include "core/rollout.h"
#include "data/workload.h"
#include "nn/batched_seq2seq.h"
#include "nn/encoder_decoder.h"

namespace tamp::core {

/// The compared assignment strategies of Section IV-A.
enum class AssignMethod {
  kUpperBound,  // Oracle on real trajectories (rejection rate 0).
  kLowerBound,  // Current location only.
  kKm,          // Plain KM on predicted trajectories.
  kPpi,         // Algorithm 4.
  kGgpso,       // Genetic/PSO baseline [11].
};

/// Canonical display name ("UB", "LB", "KM", "PPI", "GGPSO"). The returned
/// view points at static storage and round-trips through
/// ParseAssignMethod.
std::string_view AssignMethodName(AssignMethod method);

/// Inverse of AssignMethodName (case-insensitive); InvalidArgument for
/// anything else, listing the accepted names.
StatusOr<AssignMethod> ParseAssignMethod(std::string_view name);

/// Every AssignMethod, in the fixed presentation order of the paper's
/// figures (UB, LB, KM, PPI, GGPSO).
const std::vector<AssignMethod>& AllAssignMethods();

/// Batch-based online-stage settings (Table III: 2-minute windows, 10-min
/// time units).
struct SimulatorConfig {
  double batch_window_min = 2.0;
  double sample_period_min = 10.0;
  /// How many future positions the platform forecasts per worker per batch
  /// (the predicted routine w.r-hat the assigners see).
  int prediction_horizon_steps = 5;
  /// Matching-rate radius a (shared by Def. 7 evaluation and Theorem 2).
  double match_radius_km = 1.0;
  /// Brief hand-over pause after completing a task before the worker can
  /// take another assignment. It is the whole busy window, counted from
  /// acceptance: the check-in-style tasks of the paper's running example
  /// are performed en route and barely interrupt the routine, as in the
  /// paper's batch-replay evaluation.
  double service_time_min = 2.0;
  assign::PpiConfig ppi;
  assign::GgpsoConfig ggpso;
};

/// Removes every task whose deadline has passed (deadline <= now) from the
/// pending pool in a single pass, preserving the release order of the
/// survivors. Returns the number of tasks dropped. The event engine
/// expresses the same rule as task-expiry events; this is the purge of the
/// batch-synchronous reference loop in tests/core_event_sim_test.cc.
size_t PurgeExpiredTasks(std::deque<assign::SpatialTask>& pool,
                         double now_min);

/// Aggregate outcome of one simulated horizon (the Fig. 6-11 metrics).
struct SimMetrics {
  int total_tasks = 0;        // Tasks released over the horizon.
  int assignments = 0;        // |M| accumulated over batches.
  int accepted = 0;           // |M'|: assignments workers accepted.
  int completed = 0;          // Tasks completed. Equal to `accepted` minus
                              // `dropouts` (batch-replay workloads have no
                              // dropout, so there accepted == completed).
  int dropouts = 0;           // Accepted tasks aborted mid-service (churn
                              // scenarios under the event engine).
  double total_cost_km = 0.0; // Sum of real detours of completed tasks.
  double assign_seconds = 0.0;// Pure assignment-algorithm running time.

  double CompletionRatio() const {
    return total_tasks == 0 ? 0.0
                            : static_cast<double>(completed) / total_tasks;
  }
  double RejectionRatio() const {
    return assignments == 0
               ? 0.0
               : static_cast<double>(assignments - accepted) / assignments;
  }
  double AvgCostKm() const {
    return completed == 0 ? 0.0 : total_cost_km / completed;
  }
};

/// Per-worker prediction inputs the simulator needs: the trained model
/// parameters and the offline-estimated matching rate.
struct WorkerPredictor {
  const std::vector<double>* params = nullptr;  // Null for UB/LB methods.
  double matching_rate = 0.0;
};

/// The per-batch machinery of the online stage: given the pending pool and
/// the available worker indices at one instant, forecast the fleet's
/// routines in one batched rollout, run the chosen assignment algorithm
/// (KM, PPI and GGPSO each prune candidates through a fresh per-batch
/// assign::CandidateIndex; nothing carries over between batches), and
/// simulate the workers' accept/reject decisions against their real
/// trajectories. EventSimulator calls it once per assignment trigger;
/// owning it once per run keeps the fleet forecast scratch warm across
/// batches. It is public so tests can drive the batch-synchronous
/// reference loop (tests/core_event_sim_test.cc) through the exact same
/// step.
class BatchAssignStep {
 public:
  BatchAssignStep(const data::Workload& workload,
                  const nn::EncoderDecoder& model,
                  const SimulatorConfig& config,
                  // Unused; bench/e2e (frozen) still passes nullptr.
                  std::nullptr_t = nullptr);

  /// One accepted assignment: the workload worker index, the task, the
  /// real detour, and when the worker's service ends.
  struct Accepted {
    int worker = -1;           // Index into workload.workers.
    int task_id = -1;
    double detour_km = 0.0;
    double busy_until_min = 0.0;
  };

  /// Everything one batch decided, in plan order. The caller applies it to
  /// its own state (metrics, busy/pool bookkeeping). A declined task simply
  /// stays in the caller's pool and may be proposed to anyone next batch
  /// (Section IV-B).
  struct Outcome {
    int assignments = 0;       // |M| this batch proposed.
    std::vector<Accepted> accepted;
    double assign_seconds = 0.0;  // Assignment-algorithm time this batch.
  };

  /// Runs one batch at `now` over the pending pool and the available
  /// workload-worker indices (ascending). Also records the per-batch
  /// observability (batch count, pool/fleet depths, forecast/assign
  /// timings).
  Outcome Step(AssignMethod method,
               const std::vector<WorkerPredictor>& predictors, double now,
               const std::deque<assign::SpatialTask>& pool,
               const std::vector<int>& available);

 private:
  const data::Workload& workload_;
  const SimulatorConfig& config_;
  /// Observation window length (matches the training seq_in).
  int observe_steps_ = 5;
  /// Fleet-batched forecast engine + its cross-batch scratch (SoA windows,
  /// tile plan, outputs).
  nn::BatchedSeq2Seq batched_model_;
  FleetForecastScratch forecast_scratch_;
  std::vector<const std::vector<double>*> forecast_params_;
  std::vector<std::vector<geo::Point>> forecast_recents_;
  std::vector<std::vector<geo::TimedPoint>> forecast_out_;
};

}  // namespace tamp::core
