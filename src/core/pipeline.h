#pragma once

#include <vector>

#include "core/simulator.h"
#include "core/ta_loss.h"
#include "data/workload.h"
#include "meta/trainer.h"

namespace tamp::core {

/// Configuration of the full TAMP system: offline training plus online
/// batch assignment.
struct PipelineConfig {
  meta::TrainerConfig trainer;
  meta::MetaAlgorithm meta_algorithm = meta::MetaAlgorithm::kGttaml;
  /// true: train with the task-assignment-oriented loss (Eqs. 6-7);
  /// false: plain MSE (the KM-loss / PPI-loss ablation variants).
  bool use_ta_loss = true;
  TaLossParams ta_loss;
  SimulatorConfig sim;
};

/// Result of the offline stage: per-worker models plus their measured
/// prediction quality (the matching rates feed PPI).
struct OfflineResult {
  meta::TrainedModels models;
  meta::EvalResult eval;
};

/// The public entry point of the library: the two-stage TAMP platform of
/// Fig. 1. TrainOffline learns per-worker mobility models (Section III-B/C)
/// and estimates their matching rates; RunOnline replays the task stream
/// through the event-driven simulator, one assignment trigger per batch
/// window, with the chosen assignment method (Section III-D).
class TampPipeline {
 public:
  explicit TampPipeline(const PipelineConfig& config);

  const PipelineConfig& config() const { return config_; }

  /// Offline stage: builds the Eq. 7 weighter from the workload's
  /// historical tasks (when use_ta_loss), trains with the configured
  /// meta-learning algorithm, and evaluates RMSE/MAE/MR per worker.
  OfflineResult TrainOffline(const data::Workload& workload);

  /// Online stage: runs the event simulator (EventSimulator +
  /// ScheduleBatchTriggers) with one assignment method against models
  /// produced by TrainOffline. For UB/LB, `offline` may be any result
  /// (their decisions ignore the models).
  SimMetrics RunOnline(const data::Workload& workload,
                       const OfflineResult& offline, AssignMethod method);

 private:
  PipelineConfig config_;
};

}  // namespace tamp::core
