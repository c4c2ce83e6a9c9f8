#include "meta/trainer.h"

#include <gtest/gtest.h>

#include <limits>

#include "meta/taml.h"

#include "common/parallel.h"
#include "common/rng.h"

namespace tamp::meta {
namespace {

/// Eight workers in two mobility groups: rightward movers (with POIs/
/// locations in the west) and upward movers (east). Gives the clustering
/// factors real signal.
std::vector<LearningTask> MakeGroupedTasks(tamp::Rng& rng) {
  std::vector<LearningTask> tasks;
  for (int w = 0; w < 8; ++w) {
    bool group_a = w < 4;
    double vx = group_a ? 0.05 : 0.0;
    double vy = group_a ? 0.0 : 0.05;
    double cx = group_a ? 0.25 : 0.65;
    LearningTask task;
    task.worker_id = w;
    auto sample = [&]() {
      TrainingSample s;
      double x = cx + rng.Uniform(-0.1, 0.1);
      double y = 0.3 + rng.Uniform(-0.1, 0.1);
      for (int t = 0; t < 4; ++t) s.input.push_back({x + vx * t, y + vy * t});
      s.target.push_back({x + vx * 4, y + vy * 4});
      s.target_km.push_back({(x + vx * 4) * 20.0, (y + vy * 4) * 10.0});
      return s;
    };
    for (int i = 0; i < 6; ++i) task.support.push_back(sample());
    for (int i = 0; i < 4; ++i) task.query.push_back(sample());
    for (int i = 0; i < 4; ++i) task.eval.push_back(sample());
    for (const auto& s : task.support) {
      task.location_cloud.push_back(s.target_km[0]);
    }
    for (int p = 0; p < 3; ++p) {
      task.pois.emplace_back(cx * 20.0 + rng.Uniform(-1.0, 1.0),
                             3.0 + rng.Uniform(-1.0, 1.0), group_a ? 0 : 1);
    }
    tasks.push_back(std::move(task));
  }
  return tasks;
}

TrainerConfig SmallConfig() {
  TrainerConfig config;
  config.model.hidden_dim = 6;
  config.meta.iterations = 6;
  config.meta.batch_size = 2;
  config.fine_tune_steps = 5;
  config.tree.game.k = 2;
  config.tree.thresholds = {0.95, 0.95};
  config.projection_dim = 16;
  config.path_steps = 2;
  config.ctml_k = 2;
  config.seed = 42;
  return config;
}

class TrainerAlgorithmSweep : public ::testing::TestWithParam<MetaAlgorithm> {
};

TEST_P(TrainerAlgorithmSweep, TrainsAndEvaluatesAllAlgorithms) {
  tamp::Rng rng(7);
  auto tasks = MakeGroupedTasks(rng);
  MobilityTrainer trainer(SmallConfig());
  TrainedModels models = trainer.Train(tasks, GetParam());

  ASSERT_EQ(models.worker_params.size(), tasks.size());
  for (const auto& params : models.worker_params) {
    EXPECT_EQ(params.size(), trainer.model().param_count());
  }
  EXPECT_GE(models.num_leaves, 1);
  EXPECT_GT(models.train_seconds, 0.0);
  ASSERT_NE(models.tree, nullptr);

  geo::GridSpec grid(20.0, 10.0, 50, 100);
  EvalResult eval = trainer.Evaluate(models, tasks, grid, 2.0);
  EXPECT_EQ(eval.per_worker.size(), tasks.size());
  EXPECT_GT(eval.aggregate.num_points, 0);
  EXPECT_GE(eval.aggregate.matching_rate, 0.0);
  EXPECT_LE(eval.aggregate.matching_rate, 1.0);
  EXPECT_GT(eval.aggregate.rmse_km, 0.0);
  EXPECT_GE(eval.aggregate.rmse_km, eval.aggregate.mae_km);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, TrainerAlgorithmSweep,
                         ::testing::Values(MetaAlgorithm::kMaml,
                                           MetaAlgorithm::kCtml,
                                           MetaAlgorithm::kGttamlGt,
                                           MetaAlgorithm::kGttaml));

TEST(MobilityTrainerTest, MamlUsesOneCluster) {
  tamp::Rng rng(9);
  auto tasks = MakeGroupedTasks(rng);
  MobilityTrainer trainer(SmallConfig());
  TrainedModels models = trainer.Train(tasks, MetaAlgorithm::kMaml);
  EXPECT_EQ(models.num_leaves, 1);
}

TEST(MobilityTrainerTest, GttamlSeparatesTheGroups) {
  tamp::Rng rng(11);
  auto tasks = MakeGroupedTasks(rng);
  MobilityTrainer trainer(SmallConfig());
  TrainedModels models = trainer.Train(tasks, MetaAlgorithm::kGttaml);
  EXPECT_GE(models.num_leaves, 2);
  // Workers of the same movement group should share a leaf.
  const cluster::TaskTreeNode* leaf0 = FindLeafForTask(*models.tree, 0);
  const cluster::TaskTreeNode* leaf4 = FindLeafForTask(*models.tree, 4);
  ASSERT_NE(leaf0, nullptr);
  ASSERT_NE(leaf4, nullptr);
  EXPECT_NE(leaf0, leaf4);
}

TEST(MobilityTrainerTest, DeterministicForSameSeed) {
  tamp::Rng rng_a(13), rng_b(13);
  auto tasks_a = MakeGroupedTasks(rng_a);
  auto tasks_b = MakeGroupedTasks(rng_b);
  MobilityTrainer trainer_a(SmallConfig());
  MobilityTrainer trainer_b(SmallConfig());
  TrainedModels models_a = trainer_a.Train(tasks_a, MetaAlgorithm::kGttaml);
  TrainedModels models_b = trainer_b.Train(tasks_b, MetaAlgorithm::kGttaml);
  ASSERT_EQ(models_a.worker_params.size(), models_b.worker_params.size());
  for (size_t w = 0; w < models_a.worker_params.size(); ++w) {
    EXPECT_EQ(models_a.worker_params[w], models_b.worker_params[w]);
  }
}

TEST(MobilityTrainerTest, NewcomerAdaptationUsesTheRightCluster) {
  tamp::Rng rng(17);
  auto tasks = MakeGroupedTasks(rng);
  MobilityTrainer trainer(SmallConfig());
  TrainedModels models = trainer.Train(tasks, MetaAlgorithm::kGttaml);

  // A newcomer resembling group B (east, upward movers), with few samples.
  LearningTask newcomer;
  newcomer.worker_id = 100;
  for (int i = 0; i < 3; ++i) {
    TrainingSample s;
    double x = 0.65, y = 0.3 + 0.02 * i;
    for (int t = 0; t < 4; ++t) s.input.push_back({x, y + 0.05 * t});
    s.target.push_back({x, y + 0.2});
    s.target_km.push_back({x * 20.0, (y + 0.2) * 10.0});
    newcomer.support.push_back(s);
    newcomer.location_cloud.push_back(s.target_km[0]);
  }
  std::vector<double> theta = trainer.AdaptNewcomer(models, tasks, newcomer);
  EXPECT_EQ(theta.size(), trainer.model().param_count());
}

TEST(MobilityTrainerTest, WeightFnFlowsIntoTraining) {
  tamp::Rng rng(19);
  auto tasks = MakeGroupedTasks(rng);
  TrainerConfig config = SmallConfig();
  TrainerConfig weighted = SmallConfig();
  weighted.meta.weight_fn = [](const geo::Point& p) {
    return p.x > 10.0 ? 3.0 : 0.5;
  };
  MobilityTrainer plain(config);
  MobilityTrainer with_weights(weighted);
  TrainedModels m_plain = plain.Train(tasks, MetaAlgorithm::kMaml);
  TrainedModels m_weighted = with_weights.Train(tasks, MetaAlgorithm::kMaml);
  // Different losses must yield different parameters.
  EXPECT_NE(m_plain.worker_params[0], m_weighted.worker_params[0]);
}

TEST(MobilityTrainerDeathTest, EvaluateAbortsOnANonFinitePrediction) {
  // Def. 7's count is a numeric trust boundary: one NaN parameter makes a
  // worker's predictions NaN, which must abort rather than count as
  // unmatched. The threadsafe style re-runs the test in a fresh process,
  // so the 4-thread run does not fork a live thread pool.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  tamp::Rng rng(23);
  auto tasks = MakeGroupedTasks(rng);
  MobilityTrainer trainer(SmallConfig());
  TrainedModels models;
  models.model_config = trainer.config().model;
  for (size_t w = 0; w < tasks.size(); ++w) {
    models.worker_params.push_back(trainer.model().InitParams(rng));
  }
  models.worker_params[5][0] = std::numeric_limits<double>::quiet_NaN();
  geo::GridSpec grid(20.0, 10.0, 50, 100);
  for (int threads : {1, 4}) {
    SetParallelThreadCount(threads);
    EXPECT_DEATH(trainer.Evaluate(models, tasks, grid, 2.0),
                 "is not finite");
  }
  SetParallelThreadCount(0);
}

}  // namespace
}  // namespace tamp::meta
