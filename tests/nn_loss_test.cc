// The weighted MSE of Eq. 6 as the training pass computes it
// (meta::BatchLossAndGradient on nn::EncoderDecoder::TrainTile). With
// every weight and bias zero except the readout bias b, each LSTM step
// keeps h = 0 (gates 0.5, candidate tanh(0) = 0), so the model predicts
// exactly b at every step whatever its input, and the loss and its
// gradient w.r.t. b have closed forms.
#include <vector>

#include <gtest/gtest.h>

#include "meta/learning_task.h"
#include "meta/meta_training.h"
#include "nn/encoder_decoder.h"

namespace tamp::nn {
namespace {

class BiasOnlyModel {
 public:
  BiasOnlyModel(int seq_out, std::vector<double> bias)
      : model_(Config(seq_out)), params_(model_.param_count(), 0.0) {
    for (size_t d = 0; d < bias.size(); ++d) params_[BiasIndex(d)] = bias[d];
  }

  size_t BiasIndex(size_t d) const {
    const Linear& readout = model_.readout();
    return readout.offset() +
           static_cast<size_t>(readout.out_dim() * readout.in_dim()) + d;
  }

  /// Loss of one sample with the given target and per-step weights (empty:
  /// uniform); the gradient lands in `grad`.
  double Loss(const Sequence& target, const std::vector<double>& weights,
              std::vector<double>* grad = nullptr) const {
    meta::TrainingSample sample;
    sample.input = {{0.3, 0.4}, {0.5, 0.6}};
    sample.target = target;
    meta::MetaTrainConfig config;
    if (!weights.empty()) {
      // f_w reads the weight off target_km.
      for (double w : weights) sample.target_km.push_back({w, 0.0});
      config.weight_fn = [](const geo::Point& p) { return p.x; };
    }
    std::vector<double> local(params_.size(), 0.0);
    std::vector<double>& g = grad != nullptr ? *grad : local;
    g.assign(params_.size(), 0.0);
    return meta::BatchLossAndGradient(model_, params_, {sample}, config, g);
  }

  std::vector<double>& params() { return params_; }

 private:
  static Seq2SeqConfig Config(int seq_out) {
    Seq2SeqConfig config;
    config.hidden_dim = 3;
    config.seq_out = seq_out;
    return config;
  }

  EncoderDecoder model_;
  std::vector<double> params_;
};

TEST(WeightedMseLossTest, PlainMseValue) {
  BiasOnlyModel model(2, {1.0, 2.0});
  // Only one term differs by 2 -> squared 4, divided by 4 terms = 1.
  EXPECT_DOUBLE_EQ(model.Loss({{1.0, 2.0}, {1.0, 4.0}}, {}), 1.0);
}

TEST(WeightedMseLossTest, PerfectPredictionIsZero) {
  BiasOnlyModel model(2, {0.5, 0.2});
  std::vector<double> grad;
  EXPECT_EQ(model.Loss({{0.5, 0.2}, {0.5, 0.2}}, {}, &grad), 0.0);
  for (double g : grad) EXPECT_EQ(g, 0.0);
}

TEST(WeightedMseLossTest, WeightsScaleSteps) {
  BiasOnlyModel model(2, {1.0, 0.0});
  const Sequence target = {{0.0, 0.0}, {0.0, 0.0}};
  // Uniform: (1 + 1) / 4 = 0.5. Weighted 3x on the first step: (3+1)/4 = 1.
  EXPECT_DOUBLE_EQ(model.Loss(target, {}), 0.5);
  EXPECT_DOUBLE_EQ(model.Loss(target, {3.0, 1.0}), 1.0);
}

TEST(WeightedMseLossTest, GradientDirectionAndScale) {
  BiasOnlyModel model(1, {2.0, 0.0});
  std::vector<double> grad;
  model.Loss({{0.0, 0.0}}, {}, &grad);
  // dL/dp = 2 * (p - t) / terms = 2 * 2 / 2 = 2, and dp/db = 1.
  EXPECT_DOUBLE_EQ(grad[model.BiasIndex(0)], 2.0);
  EXPECT_DOUBLE_EQ(grad[model.BiasIndex(1)], 0.0);
}

TEST(WeightedMseLossTest, WeightedGradientSumsTheSteps) {
  BiasOnlyModel model(2, {1.0, 1.0});
  std::vector<double> grad;
  model.Loss({{0.0, 0.0}, {0.0, 2.0}}, {4.0, 1.0}, &grad);
  // dL/db_d = sum_t 2 * w_t * (b_d - t_td) / 4.
  EXPECT_DOUBLE_EQ(grad[model.BiasIndex(0)], (4.0 + 1.0) / 2.0);
  EXPECT_DOUBLE_EQ(grad[model.BiasIndex(1)], (4.0 - 1.0) / 2.0);
}

TEST(WeightedMseLossTest, GradientMatchesFiniteDifference) {
  BiasOnlyModel model(2, {0.3, 0.7});
  const Sequence target = {{0.5, 0.4}, {0.0, 0.9}};
  const std::vector<double> weights = {1.5, 0.25};
  std::vector<double> grad;
  model.Loss(target, weights, &grad);
  const double h = 1e-7;
  for (size_t d = 0; d < 2; ++d) {
    double& b = model.params()[model.BiasIndex(d)];
    const double orig = b;
    b = orig + h;
    const double plus = model.Loss(target, weights);
    b = orig - h;
    const double minus = model.Loss(target, weights);
    b = orig;
    EXPECT_NEAR(grad[model.BiasIndex(d)], (plus - minus) / (2.0 * h), 1e-6);
  }
}

}  // namespace
}  // namespace tamp::nn
