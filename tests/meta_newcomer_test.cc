// The cold-start path end-to-end: meta-training on veterans must transfer
// to a newcomer through the most-similar-node initialization (Section
// III-B's newcomer strategy) better than training from scratch on the same
// few-shot budget.
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "meta/meta_training.h"
#include "meta/taml.h"
#include "meta/trainer.h"
#include "similarity/wasserstein.h"

namespace tamp::meta {
namespace {

/// Veterans in two movement groups; the newcomer belongs to group B.
LearningTask MakeTask(int id, bool group_a, int n_train, tamp::Rng& rng) {
  double vx = group_a ? 0.05 : -0.05;
  double cx = group_a ? 0.25 : 0.75;
  LearningTask task;
  task.worker_id = id;
  auto sample = [&]() {
    TrainingSample s;
    double x = cx + rng.Uniform(-0.05, 0.05);
    double y = 0.4 + rng.Uniform(-0.1, 0.1);
    for (int t = 0; t < 4; ++t) s.input.push_back({x + vx * t, y});
    s.target.push_back({x + vx * 4, y});
    s.target_km.push_back({(x + vx * 4) * 20.0, y * 10.0});
    return s;
  };
  for (int i = 0; i < n_train; ++i) task.support.push_back(sample());
  for (int i = 0; i < n_train / 2 + 1; ++i) task.query.push_back(sample());
  for (int i = 0; i < 6; ++i) task.eval.push_back(sample());
  for (const auto& s : task.support) {
    task.location_cloud.push_back(s.target_km[0]);
  }
  task.pois.emplace_back(cx * 20.0, 4.0, group_a ? 0 : 1);
  return task;
}

/// RMSE (normalized units) of one PredictBatch over the task's eval
/// windows.
double EvalRmse(const nn::EncoderDecoder& model,
                const std::vector<double>& params, const LearningTask& task) {
  std::vector<const std::vector<double>*> row_params(task.eval.size(),
                                                     &params);
  std::vector<const nn::Sequence*> inputs;
  for (const auto& sample : task.eval) inputs.push_back(&sample.input);
  nn::RolloutScratch scratch;
  std::vector<nn::Sequence> preds;
  model.PredictBatch(row_params, inputs, &preds, scratch);
  double se = 0.0;
  int n = 0;
  for (size_t i = 0; i < task.eval.size(); ++i) {
    const nn::Sequence& pred = preds[i];
    for (size_t t = 0; t < pred.size(); ++t) {
      for (size_t d = 0; d < pred[t].size(); ++d) {
        double diff = pred[t][d] - task.eval[i].target[t][d];
        se += diff * diff;
        ++n;
      }
    }
  }
  return std::sqrt(se / n);
}

TEST(NewcomerAdaptationTest, TreeInitBeatsScratchOnFewShots) {
  tamp::Rng rng(5);
  std::vector<LearningTask> veterans;
  for (int i = 0; i < 8; ++i) veterans.push_back(MakeTask(i, i < 4, 10, rng));

  TrainerConfig config;
  config.model.hidden_dim = 8;
  config.meta.iterations = 25;
  config.meta.batch_size = 3;
  config.fine_tune_steps = 5;  // Few-shot budget.
  config.tree.game.k = 2;
  config.projection_dim = 12;
  config.seed = 9;
  MobilityTrainer trainer(config);
  TrainedModels models = trainer.Train(veterans, MetaAlgorithm::kGttaml);

  // A group-B newcomer with only 3 samples.
  LearningTask newcomer = MakeTask(100, /*group_a=*/false, 3, rng);
  std::vector<double> tree_init =
      trainer.AdaptNewcomer(models, veterans, newcomer);

  tamp::Rng scratch_rng(17);
  std::vector<double> scratch = trainer.model().InitParams(scratch_rng);
  FineTune(trainer.model(), newcomer, scratch, config.fine_tune_steps,
           config.fine_tune_lr, config.meta);

  double tree_rmse = EvalRmse(trainer.model(), tree_init, newcomer);
  double scratch_rmse = EvalRmse(trainer.model(), scratch, newcomer);
  EXPECT_LT(tree_rmse, scratch_rmse)
      << "tree " << tree_rmse << " scratch " << scratch_rmse;
}

TEST(NewcomerAdaptationTest, PicksTheMatchingGroupNode) {
  tamp::Rng rng(19);
  std::vector<LearningTask> veterans;
  for (int i = 0; i < 8; ++i) veterans.push_back(MakeTask(i, i < 4, 10, rng));

  TrainerConfig config;
  config.model.hidden_dim = 6;
  config.meta.iterations = 5;
  config.tree.game.k = 2;
  config.projection_dim = 12;
  config.seed = 21;
  MobilityTrainer trainer(config);
  TrainedModels models = trainer.Train(veterans, MetaAlgorithm::kGttaml);
  ASSERT_GE(models.num_leaves, 2);

  LearningTask newcomer = MakeTask(100, /*group_a=*/false, 3, rng);
  // The most similar node must contain only group-B veterans (ids >= 4).
  auto similarity_to = [&](int task_id) {
    return similarity::DistributionSimilarity(
        newcomer.location_cloud, veterans[task_id].location_cloud, 8, 2.0);
  };
  const cluster::TaskTreeNode* best =
      FindMostSimilarNode(*models.tree, similarity_to);
  ASSERT_NE(best, nullptr);
  for (int t : best->tasks) {
    EXPECT_GE(t, 4) << "newcomer matched to the wrong movement group";
  }
}

}  // namespace
}  // namespace tamp::meta
