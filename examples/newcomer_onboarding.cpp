// Cold-start scenario (Challenge I): a newcomer joins the platform with a
// single day of history. Compare initializing their mobility model from
// (a) the most similar learning-task-tree node (the paper's newcomer
// strategy) against (b) a fresh random initialization, after the same
// small number of fine-tuning steps.
//
// Accepts the shared run flags (core::RunFlagsHelp), e.g.
//   newcomer_onboarding --threads=4 --metrics=newcomer_metrics.json
#include <iostream>

#include "common/rng.h"
#include "common/table_printer.h"
#include "core/run_options.h"
#include "data/workload.h"
#include "meta/meta_training.h"
#include "meta/trainer.h"

int main(int argc, char** argv) {
  using namespace tamp;

  core::RunOptions options;
  options.seed = 31;  // The example's default workload seed.
  Status status = core::ParseRunFlags(argc, argv, &options);
  if (status.code() == StatusCode::kFailedPrecondition) {
    std::cout << "newcomer_onboarding: few-shot cold start from the "
                 "learning-task tree\n\nflags:\n"
              << status.message();
    return 0;
  }
  if (status.ok()) status = options.Validate();
  if (!status.ok()) {
    std::cerr << "newcomer_onboarding: " << status.ToString() << "\n";
    return 1;
  }
  core::ApplyRunOptions(options);

  // Veterans: full history. One extra worker plays the newcomer.
  data::WorkloadConfig workload_config;
  workload_config.kind = options.workload.kind;
  workload_config.scenario = options.workload.scenario;
  workload_config.num_workers = 17;
  workload_config.num_train_days = 4;
  workload_config.newcomer_fraction = 0.06;  // Exactly one newcomer.
  workload_config.num_tasks = 100;
  workload_config.seed = options.seed;
  data::Workload workload = data::GenerateWorkload(workload_config);

  // Separate the newcomer from the veterans.
  meta::LearningTask newcomer = workload.learning_tasks.front();
  std::vector<meta::LearningTask> veterans(
      workload.learning_tasks.begin() + 1, workload.learning_tasks.end());
  std::cout << "Veterans: " << veterans.size() << " workers with "
            << workload_config.num_train_days << " days of history.\n"
            << "Newcomer: worker " << newcomer.worker_id << " with "
            << newcomer.support.size() + newcomer.query.size()
            << " training samples from a single day.\n\n";

  meta::TrainerConfig trainer_config;
  trainer_config.model.input_dim = data::kSampleInputDim;
  trainer_config.meta.iterations = 20;
  trainer_config.fine_tune_steps = 10;  // Few-shot: the newcomer regime.
  trainer_config.seed = 7;
  meta::MobilityTrainer trainer(trainer_config);

  std::cout << "Meta-training GTTAML on the veterans...\n";
  meta::TrainedModels models =
      trainer.Train(veterans, meta::MetaAlgorithm::kGttaml);
  std::cout << "  learning task tree: " << models.num_leaves << " leaves.\n\n";

  // (a) The paper's strategy: init from the most similar tree node.
  std::vector<double> tree_params =
      trainer.AdaptNewcomer(models, veterans, newcomer);

  // (b) Baseline: random init + identical fine-tuning budget.
  Rng rng(123);
  std::vector<double> scratch_params = trainer.model().InitParams(rng);
  meta::FineTune(trainer.model(), newcomer, scratch_params,
                 trainer_config.fine_tune_steps, trainer_config.fine_tune_lr,
                 trainer_config.meta);

  // Evaluate both on the newcomer's held-out day, one batch of its eval
  // windows each.
  std::vector<const nn::Sequence*> inputs;
  for (const auto& sample : newcomer.eval) inputs.push_back(&sample.input);
  nn::RolloutScratch scratch;
  auto evaluate = [&](const std::vector<double>& params) {
    std::vector<nn::Sequence> preds;
    trainer.model().PredictBatch(
        std::vector<const std::vector<double>*>(inputs.size(), &params),
        inputs, &preds, scratch);
    double se = 0.0, matched = 0.0;
    int points = 0;
    for (size_t i = 0; i < newcomer.eval.size(); ++i) {
      const nn::Sequence& pred = preds[i];
      for (size_t t = 0; t < pred.size(); ++t) {
        geo::Point pred_km =
            workload.grid.Denormalize({pred[t][0], pred[t][1]});
        double d = geo::Distance(pred_km, newcomer.eval[i].target_km[t]);
        se += d * d;
        if (d <= 1.0) matched += 1.0;
        ++points;
      }
    }
    return std::pair<double, double>{std::sqrt(se / points),
                                     matched / points};
  };
  auto [tree_rmse, tree_mr] = evaluate(tree_params);
  auto [scratch_rmse, scratch_mr] = evaluate(scratch_params);

  TablePrinter table({"initialization", "RMSE (km)", "MR @1km"});
  table.AddRow({"most-similar tree node (paper)", Fmt(tree_rmse, 3),
                Fmt(tree_mr, 3)});
  table.AddRow({"random init + same fine-tuning", Fmt(scratch_rmse, 3),
                Fmt(scratch_mr, 3)});
  table.Print(std::cout);
  std::cout << "\nThe tree initialization transfers the mobility patterns of "
               "the newcomer's most similar cluster, which is what makes "
               "few-shot onboarding work.\n";

  status = core::WriteRunArtifacts(options);
  if (!status.ok()) {
    std::cerr << "newcomer_onboarding: " << status.ToString() << "\n";
    return 1;
  }
  return 0;
}
