#include "meta/meta_training.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "meta/learning_task.h"
#include "nn/encoder_decoder.h"

namespace tamp::meta {
namespace {

/// A learning task whose worker moves with constant velocity (vx, vy) in
/// normalized coordinates; the model must learn to extrapolate.
LearningTask MakeLinearTask(int worker_id, double vx, double vy,
                            tamp::Rng& rng, int n_support = 6,
                            int n_query = 4, int n_eval = 4) {
  LearningTask task;
  task.worker_id = worker_id;
  auto make_sample = [&]() {
    TrainingSample sample;
    double x = rng.Uniform(0.1, 0.5), y = rng.Uniform(0.1, 0.5);
    for (int t = 0; t < 4; ++t) {
      sample.input.push_back({x + vx * t, y + vy * t});
    }
    sample.target.push_back({x + vx * 4, y + vy * 4});
    sample.target_km.push_back({(x + vx * 4) * 10.0, (y + vy * 4) * 10.0});
    return sample;
  };
  for (int i = 0; i < n_support; ++i) task.support.push_back(make_sample());
  for (int i = 0; i < n_query; ++i) task.query.push_back(make_sample());
  for (int i = 0; i < n_eval; ++i) task.eval.push_back(make_sample());
  for (const auto& s : task.support) {
    task.location_cloud.push_back(s.target_km[0]);
  }
  task.pois.emplace_back(vx * 100.0, vy * 100.0, worker_id % 3);
  return task;
}

nn::EncoderDecoder SmallModel() {
  nn::Seq2SeqConfig config;
  config.hidden_dim = 6;
  return nn::EncoderDecoder(config);
}

double AvgQueryLoss(const nn::EncoderDecoder& model,
                    const std::vector<double>& theta,
                    const std::vector<LearningTask>& tasks,
                    const MetaTrainConfig& config) {
  double total = 0.0;
  int count = 0;
  for (const auto& task : tasks) {
    std::vector<double> adapted = AdaptKSteps(
        model, theta, task.support, config.adapt_steps, config.beta, config);
    // The query samples' mean loss (uniform weights) at the adapted
    // parameters, counted once per sample.
    std::vector<double> unused(adapted.size(), 0.0);
    total += BatchLossAndGradient(model, adapted, task.query,
                                  MetaTrainConfig(), unused) *
             static_cast<double>(task.query.size());
    count += static_cast<int>(task.query.size());
  }
  return total / count;
}

TEST(SampleWeightsTest, EmptyWithoutWeightFn) {
  MetaTrainConfig config;
  TrainingSample sample;
  sample.target_km.push_back({1.0, 2.0});
  EXPECT_TRUE(SampleWeights(config, sample).empty());
}

TEST(SampleWeightsTest, AppliesWeightFnPerTargetPoint) {
  MetaTrainConfig config;
  config.weight_fn = [](const geo::Point& p) { return p.x + p.y; };
  TrainingSample sample;
  sample.target_km.push_back({1.0, 2.0});
  sample.target_km.push_back({0.5, 0.25});
  auto weights = SampleWeights(config, sample);
  ASSERT_EQ(weights.size(), 2u);
  EXPECT_DOUBLE_EQ(weights[0], 3.0);
  EXPECT_DOUBLE_EQ(weights[1], 0.75);
}

TEST(BatchLossAndGradientTest, AveragesOverSamples) {
  tamp::Rng rng(3);
  nn::EncoderDecoder model = SmallModel();
  std::vector<double> theta = model.InitParams(rng);
  LearningTask task = MakeLinearTask(0, 0.03, 0.01, rng);
  MetaTrainConfig config;
  std::vector<double> grad(theta.size(), 0.0);
  double loss =
      BatchLossAndGradient(model, theta, task.support, config, grad);
  EXPECT_GT(loss, 0.0);
  double norm = 0.0;
  for (double g : grad) norm += g * g;
  EXPECT_GT(norm, 0.0);
}

TEST(AdaptKStepsTest, ReducesSupportLoss) {
  tamp::Rng rng(5);
  nn::EncoderDecoder model = SmallModel();
  std::vector<double> theta = model.InitParams(rng);
  LearningTask task = MakeLinearTask(0, 0.04, 0.02, rng, 12, 4);
  MetaTrainConfig config;
  config.beta = 0.2;

  auto support_loss = [&](const std::vector<double>& params) {
    std::vector<double> scratch(params.size(), 0.0);
    return BatchLossAndGradient(model, params, task.support, config, scratch);
  };
  double before = support_loss(theta);
  std::vector<double> adapted =
      AdaptKSteps(model, theta, task.support, 10, config.beta, config);
  double after = support_loss(adapted);
  EXPECT_LT(after, before);
}

TEST(AdaptKStepsTest, ZeroStepsIsIdentity) {
  tamp::Rng rng(7);
  nn::EncoderDecoder model = SmallModel();
  std::vector<double> theta = model.InitParams(rng);
  LearningTask task = MakeLinearTask(0, 0.02, 0.02, rng);
  MetaTrainConfig config;
  EXPECT_EQ(AdaptKSteps(model, theta, task.support, 0, 0.1, config), theta);
}

TEST(MetaTrainTest, ReducesAveragePostAdaptationQueryLoss) {
  tamp::Rng rng(9);
  nn::EncoderDecoder model = SmallModel();
  std::vector<double> theta = model.InitParams(rng);
  std::vector<LearningTask> tasks;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back(MakeLinearTask(i, 0.03, 0.015, rng));
  }
  std::vector<int> members = {0, 1, 2, 3, 4, 5};
  MetaTrainConfig config;
  config.iterations = 40;
  config.alpha = 0.1;
  config.beta = 0.15;
  config.adapt_steps = 2;
  config.batch_size = 3;

  double before = AvgQueryLoss(model, theta, tasks, config);
  MetaTrainResult result =
      MetaTrain(model, tasks, members, theta, config, rng);
  double after = AvgQueryLoss(model, theta, tasks, config);
  EXPECT_LT(after, before);
  EXPECT_GT(result.avg_query_loss, 0.0);
  EXPECT_EQ(result.meta_gradient.size(), theta.size());
}

TEST(FineTuneTest, ReducesLossOnWorkerData) {
  tamp::Rng rng(11);
  nn::EncoderDecoder model = SmallModel();
  std::vector<double> theta = model.InitParams(rng);
  LearningTask task = MakeLinearTask(0, 0.05, 0.01, rng, 10, 6);
  MetaTrainConfig config;

  auto all_loss = [&](const std::vector<double>& params) {
    std::vector<double> scratch(params.size(), 0.0);
    double l = BatchLossAndGradient(model, params, task.support, config,
                                    scratch);
    std::fill(scratch.begin(), scratch.end(), 0.0);
    l += BatchLossAndGradient(model, params, task.query, config, scratch);
    return l;
  };
  double before = all_loss(theta);
  FineTune(model, task, theta, 30, 0.02, config);
  double after = all_loss(theta);
  EXPECT_LT(after, before);
}

TEST(ComputeGradientPathTest, ShapeAndDeterminism) {
  tamp::Rng rng(13);
  nn::EncoderDecoder model = SmallModel();
  std::vector<double> probe = model.InitParams(rng);
  LearningTask task = MakeLinearTask(0, 0.02, 0.03, rng);
  similarity::RandomProjector projector(model.param_count(), 16, 77);

  auto path_a = ComputeGradientPath(model, task, probe, 3, 0.1, projector);
  auto path_b = ComputeGradientPath(model, task, probe, 3, 0.1, projector);
  ASSERT_EQ(path_a.size(), 3u);
  for (const auto& step : path_a) EXPECT_EQ(step.size(), 16u);
  EXPECT_EQ(path_a, path_b);
}

TEST(ComputeGradientPathTest, SimilarTasksHaveSimilarPaths) {
  tamp::Rng rng(17);
  nn::EncoderDecoder model = SmallModel();
  std::vector<double> probe = model.InitParams(rng);
  similarity::RandomProjector projector(model.param_count(), 32, 78);
  LearningTask a = MakeLinearTask(0, 0.05, 0.0, rng, 10, 4);
  LearningTask b = MakeLinearTask(1, 0.05, 0.0, rng, 10, 4);
  LearningTask c = MakeLinearTask(2, -0.05, 0.0, rng, 10, 4);

  auto pa = ComputeGradientPath(model, a, probe, 3, 0.1, projector);
  auto pb = ComputeGradientPath(model, b, probe, 3, 0.1, projector);
  auto pc = ComputeGradientPath(model, c, probe, 3, 0.1, projector);
  double same = similarity::LearningPathSimilarity(pa, pb);
  double diff = similarity::LearningPathSimilarity(pa, pc);
  EXPECT_GT(same, diff);
}

}  // namespace
}  // namespace tamp::meta
