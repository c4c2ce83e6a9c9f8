#include "core/pipeline.h"

#include <memory>

#include "common/check.h"
#include "common/obs/trace.h"
#include "core/event_sim.h"

namespace tamp::core {

TampPipeline::TampPipeline(const PipelineConfig& config) : config_(config) {
  // Workload samples carry (x, y, time-of-day) inputs; the model must
  // match regardless of what the caller left in the trainer config.
  config_.trainer.model.input_dim = data::kSampleInputDim;
}

OfflineResult TampPipeline::TrainOffline(const data::Workload& workload) {
  obs::TraceSpan span("pipeline.train_offline");
  TAMP_CHECK(!workload.learning_tasks.empty());
  meta::TrainerConfig trainer_config = config_.trainer;

  // The weighter must outlive training; keep it alive for this call.
  std::unique_ptr<TaskOrientedWeighter> weighter;
  if (config_.use_ta_loss) {
    weighter = std::make_unique<TaskOrientedWeighter>(
        workload.grid, workload.historical_task_locations, config_.ta_loss);
    trainer_config.meta.weight_fn = weighter->AsFunction();
  } else {
    trainer_config.meta.weight_fn = nullptr;
  }

  meta::MobilityTrainer trainer(trainer_config);
  OfflineResult result;
  result.models =
      trainer.Train(workload.learning_tasks, config_.meta_algorithm);
  result.eval = trainer.Evaluate(result.models, workload.learning_tasks,
                                 workload.grid, config_.sim.match_radius_km);
  return result;
}

SimMetrics TampPipeline::RunOnline(const data::Workload& workload,
                                   const OfflineResult& offline,
                                   AssignMethod method) {
  obs::TraceSpan span("pipeline.run_online");
  nn::EncoderDecoder model(config_.trainer.model);
  if (config_.sim.candidate_mode == CandidateMode::kIncremental &&
      candidate_engine_ == nullptr) {
    candidate_engine_ = std::make_unique<assign::IncrementalCandidateEngine>();
  }
  BatchAssignStep step(workload, model, config_.sim, candidate_engine_.get());
  EventSimulator simulator(workload, config_.sim, step);
  simulator.ScheduleBatchTriggers();

  std::vector<WorkerPredictor> predictors(workload.workers.size());
  const bool needs_models = method == AssignMethod::kKm ||
                            method == AssignMethod::kPpi ||
                            method == AssignMethod::kGgpso;
  if (needs_models) {
    TAMP_CHECK(offline.models.worker_params.size() ==
               workload.workers.size());
    for (size_t w = 0; w < workload.workers.size(); ++w) {
      predictors[w].params = &offline.models.worker_params[w];
      predictors[w].matching_rate =
          offline.eval.per_worker[w].matching_rate;
    }
  }
  return simulator.Run(method, predictors);
}

}  // namespace tamp::core
