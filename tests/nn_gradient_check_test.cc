// Gradients against central finite differences. The model-level cases
// check the production training pass (meta::BatchLossAndGradient on
// nn::EncoderDecoder::TrainTile), so a derivation error shared by the
// engine and the scalar oracle it is compared with bitwise still fails
// here; the layer steps (Linear, LSTM cell) are checked on the oracle.
#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "meta/learning_task.h"
#include "meta/meta_training.h"
#include "nn/encoder_decoder.h"
#include "nn/linear.h"
#include "nn/lstm_cell.h"
#include "nn_oracle.h"

namespace tamp::nn {
namespace {

/// Central-difference numerical gradient of a scalar function of the
/// parameter vector.
std::vector<double> NumericalGradient(
    const std::function<double(const std::vector<double>&)>& f,
    std::vector<double> params, double h = 1e-6) {
  std::vector<double> grad(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    double orig = params[i];
    params[i] = orig + h;
    double plus = f(params);
    params[i] = orig - h;
    double minus = f(params);
    params[i] = orig;
    grad[i] = (plus - minus) / (2.0 * h);
  }
  return grad;
}

double MaxRelError(const std::vector<double>& a,
                   const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double denom = std::max({std::fabs(a[i]), std::fabs(b[i]), 1e-4});
    worst = std::max(worst, std::fabs(a[i] - b[i]) / denom);
  }
  return worst;
}

TEST(LinearGradientTest, MatchesFiniteDifferences) {
  tamp::Rng rng(3);
  Linear layer(3, 2, 0);
  std::vector<double> params(layer.param_count());
  layer.InitParams(rng, params);
  std::vector<double> x = {0.5, -0.3, 0.8};
  std::vector<double> target = {0.2, -0.1};

  auto loss_fn = [&](const std::vector<double>& p) {
    std::vector<double> y = oracle::LinearForward(layer, p, x);
    double loss = 0.0;
    for (size_t i = 0; i < y.size(); ++i) {
      loss += (y[i] - target[i]) * (y[i] - target[i]);
    }
    return loss;
  };

  // Analytic gradient: dL/dy = 2(y - t), backprop through the layer.
  std::vector<double> y = oracle::LinearForward(layer, params, x);
  std::vector<double> dy(y.size());
  for (size_t i = 0; i < y.size(); ++i) dy[i] = 2.0 * (y[i] - target[i]);
  std::vector<double> grad(params.size(), 0.0);
  oracle::LinearBackward(layer, params, x, dy, grad);

  std::vector<double> numeric = NumericalGradient(loss_fn, params);
  EXPECT_LT(MaxRelError(grad, numeric), 1e-5);
}

TEST(LinearGradientTest, InputGradientMatchesFiniteDifferences) {
  tamp::Rng rng(4);
  Linear layer(3, 2, 0);
  std::vector<double> params(layer.param_count());
  layer.InitParams(rng, params);
  std::vector<double> x = {0.5, -0.3, 0.8};

  auto loss_of_x = [&](const std::vector<double>& xin) {
    std::vector<double> y = oracle::LinearForward(layer, params, xin);
    return y[0] * y[0] + 0.5 * y[1];
  };

  std::vector<double> y = oracle::LinearForward(layer, params, x);
  std::vector<double> dy = {2.0 * y[0], 0.5};
  std::vector<double> grad(params.size(), 0.0);
  std::vector<double> dx;
  oracle::LinearBackward(layer, params, x, dy, grad, &dx);

  std::vector<double> numeric = NumericalGradient(loss_of_x, x);
  EXPECT_LT(MaxRelError(dx, numeric), 1e-5);
}

TEST(LstmCellGradientTest, MatchesFiniteDifferencesThroughTwoSteps) {
  tamp::Rng rng(5);
  const int input_dim = 2, hidden = 3;
  LstmCell cell(input_dim, hidden, 0);
  std::vector<double> params(cell.param_count());
  cell.InitParams(rng, params);
  std::vector<std::vector<double>> xs = {{0.3, -0.7}, {0.9, 0.1}};

  // Scalar objective: sum of final hidden state entries squared.
  auto loss_fn = [&](const std::vector<double>& p) {
    std::vector<double> h(hidden, 0.0), c(hidden, 0.0);
    for (const auto& x : xs) oracle::LstmForward(cell, p, x, h, c);
    double loss = 0.0;
    for (double v : h) loss += v * v;
    return loss;
  };

  // Analytic: forward keeping each step, backprop both steps.
  std::vector<double> h(hidden, 0.0), c(hidden, 0.0);
  std::vector<oracle::LstmStep> steps;
  for (const auto& x : xs) {
    steps.push_back(oracle::LstmForward(cell, params, x, h, c));
  }
  std::vector<double> dh(hidden), dc(hidden, 0.0);
  for (int k = 0; k < hidden; ++k) dh[k] = 2.0 * h[k];
  std::vector<double> grad(params.size(), 0.0);
  for (size_t t = steps.size(); t-- > 0;) {
    oracle::LstmBackward(cell, params, steps[t], dh, dc, grad);
  }

  std::vector<double> numeric = NumericalGradient(loss_fn, params);
  EXPECT_LT(MaxRelError(grad, numeric), 1e-4);
}

meta::TrainingSample MakeSample(tamp::Rng& rng, int seq_in, int input_dim,
                                int seq_out) {
  meta::TrainingSample sample;
  for (int t = 0; t < seq_in; ++t) {
    std::vector<double> step;
    for (int d = 0; d < input_dim; ++d) step.push_back(rng.Uniform(0.0, 1.0));
    sample.input.push_back(std::move(step));
  }
  for (int t = 0; t < seq_out; ++t) {
    sample.target.push_back({rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)});
    sample.target_km.push_back(
        {sample.target.back()[0] * 10.0, sample.target.back()[1] * 10.0});
  }
  return sample;
}

/// The production gradient of the mean loss over `samples` against
/// central differences of the production loss, over every parameter.
double MaxBatchGradientError(const EncoderDecoder& model,
                             const std::vector<double>& params,
                             const std::vector<meta::TrainingSample>& samples,
                             const meta::MetaTrainConfig& config) {
  auto loss_fn = [&](const std::vector<double>& p) {
    std::vector<double> unused(p.size(), 0.0);
    return meta::BatchLossAndGradient(model, p, samples, config, unused);
  };
  std::vector<double> grad(params.size(), 0.0);
  meta::BatchLossAndGradient(model, params, samples, config, grad);
  return MaxRelError(grad, NumericalGradient(loss_fn, params));
}

TEST(EncoderDecoderGradientTest, MatchesFiniteDifferences) {
  tamp::Rng rng(6);
  Seq2SeqConfig config;
  config.hidden_dim = 4;
  config.seq_out = 2;
  EncoderDecoder model(config);
  std::vector<double> params = model.InitParams(rng);
  std::vector<meta::TrainingSample> samples = {MakeSample(rng, 3, 2, 2)};
  EXPECT_LT(MaxBatchGradientError(model, params, samples, {}), 1e-4);
}

/// One set that crosses every tile rule: 17 samples of input length 3 (a
/// full 16-column tile and a 1-column remainder), then 3 of length 2 (a
/// tile of its own), with Eq. 7-style step weights and teacher forcing
/// over seq_out 2, at input_dim 3.
TEST(EncoderDecoderGradientTest, WeightedTilesAndInputLengthsMatch) {
  tamp::Rng rng(7);
  Seq2SeqConfig config;
  config.input_dim = 3;
  config.hidden_dim = 4;
  config.seq_out = 2;
  EncoderDecoder model(config);
  std::vector<double> params = model.InitParams(rng);
  std::vector<meta::TrainingSample> samples;
  for (int s = 0; s < 17; ++s) samples.push_back(MakeSample(rng, 3, 3, 2));
  for (int s = 0; s < 3; ++s) samples.push_back(MakeSample(rng, 2, 3, 2));
  ASSERT_EQ(meta::EqualLengthRunEnd(samples, 0), 17u);
  ASSERT_GT(17u, EncoderDecoder::kTrainTileCols);

  meta::MetaTrainConfig weighted;
  weighted.weight_fn = [](const geo::Point& p) { return 0.5 + 0.2 * p.x; };
  EXPECT_LT(MaxBatchGradientError(model, params, samples, weighted), 1e-4);
}

}  // namespace
}  // namespace tamp::nn
