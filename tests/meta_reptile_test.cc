// The Reptile meta-update rule as an alternative to first-order MAML:
// both must reduce the post-adaptation query loss, and they must produce
// genuinely different meta-gradients.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "meta/meta_training.h"
#include "nn/encoder_decoder.h"

namespace tamp::meta {
namespace {

LearningTask MakeLinearTask(int id, double vx, tamp::Rng& rng) {
  LearningTask task;
  task.worker_id = id;
  auto sample = [&]() {
    TrainingSample s;
    double x = rng.Uniform(0.1, 0.5), y = rng.Uniform(0.2, 0.6);
    for (int t = 0; t < 4; ++t) s.input.push_back({x + vx * t, y});
    s.target.push_back({x + vx * 4, y});
    s.target_km.push_back({(x + vx * 4) * 10.0, y * 10.0});
    return s;
  };
  for (int i = 0; i < 8; ++i) task.support.push_back(sample());
  for (int i = 0; i < 4; ++i) task.query.push_back(sample());
  return task;
}

nn::EncoderDecoder SmallModel() {
  nn::Seq2SeqConfig config;
  config.hidden_dim = 6;
  return nn::EncoderDecoder(config);
}

double AvgAdaptedQueryLoss(const nn::EncoderDecoder& model,
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

class UpdateRuleSweep : public ::testing::TestWithParam<MetaUpdateRule> {};

TEST_P(UpdateRuleSweep, ReducesQueryLoss) {
  tamp::Rng rng(13);
  nn::EncoderDecoder model = SmallModel();
  std::vector<double> theta = model.InitParams(rng);
  std::vector<LearningTask> tasks;
  for (int i = 0; i < 5; ++i) tasks.push_back(MakeLinearTask(i, 0.04, rng));
  std::vector<int> members = {0, 1, 2, 3, 4};

  MetaTrainConfig config;
  config.update_rule = GetParam();
  config.iterations = 35;
  config.alpha = 0.1;
  config.beta = 0.15;
  config.batch_size = 3;

  double before = AvgAdaptedQueryLoss(model, theta, tasks, config);
  MetaTrain(model, tasks, members, theta, config, rng);
  double after = AvgAdaptedQueryLoss(model, theta, tasks, config);
  EXPECT_LT(after, before);
}

INSTANTIATE_TEST_SUITE_P(Rules, UpdateRuleSweep,
                         ::testing::Values(MetaUpdateRule::kFomaml,
                                           MetaUpdateRule::kReptile));

TEST(ReptileTest, RulesProduceDifferentParameters) {
  tamp::Rng rng_a(21), rng_b(21);
  nn::EncoderDecoder model = SmallModel();
  tamp::Rng init_rng(3);
  std::vector<double> theta_a = model.InitParams(init_rng);
  std::vector<double> theta_b = theta_a;

  tamp::Rng data_rng(5);
  std::vector<LearningTask> tasks;
  for (int i = 0; i < 4; ++i) tasks.push_back(MakeLinearTask(i, 0.03, data_rng));
  std::vector<int> members = {0, 1, 2, 3};

  MetaTrainConfig fomaml;
  fomaml.iterations = 5;
  MetaTrainConfig reptile = fomaml;
  reptile.update_rule = MetaUpdateRule::kReptile;

  MetaTrain(model, tasks, members, theta_a, fomaml, rng_a);
  MetaTrain(model, tasks, members, theta_b, reptile, rng_b);
  EXPECT_NE(theta_a, theta_b);
}

TEST(ReptileTest, ReptileGradientPointsTowardAdaptedParams) {
  // One task, one iteration: the Reptile meta-gradient must equal
  // (theta - adapted) / beta up to clipping.
  tamp::Rng rng(31);
  nn::EncoderDecoder model = SmallModel();
  std::vector<double> theta = model.InitParams(rng);
  std::vector<double> original = theta;
  tamp::Rng data_rng(7);
  std::vector<LearningTask> tasks = {MakeLinearTask(0, 0.05, data_rng)};

  MetaTrainConfig config;
  config.update_rule = MetaUpdateRule::kReptile;
  config.iterations = 1;
  config.batch_size = 1;
  config.grad_clip = 1e9;  // No clipping, for the exact identity.

  std::vector<double> adapted = AdaptKSteps(
      model, original, tasks[0].support, config.adapt_steps, config.beta,
      config);
  MetaTrainResult result =
      MetaTrain(model, tasks, {0}, theta, config, rng);
  for (size_t i = 0; i < theta.size(); ++i) {
    double expected = (original[i] - adapted[i]) / config.beta;
    EXPECT_NEAR(result.meta_gradient[i], expected, 1e-9);
    // And theta moved by -alpha * that gradient.
    EXPECT_NEAR(theta[i], original[i] - config.alpha * expected, 1e-9);
  }
}

}  // namespace
}  // namespace tamp::meta
