// The model learns and predicts through the production engine: SGD on
// meta::BatchLossAndGradient (nn::EncoderDecoder::TrainTile) fits a toy
// motion, and PredictBatch forecasts it.
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "meta/learning_task.h"
#include "meta/meta_training.h"
#include "nn/encoder_decoder.h"
#include "nn/optimizer.h"

namespace tamp::nn {
namespace {

/// A toy trajectory task: points move diagonally with constant velocity;
/// the model should learn to extrapolate.
std::vector<meta::TrainingSample> MakeToyData(int n, int seq_in, int seq_out,
                                              tamp::Rng& rng) {
  std::vector<meta::TrainingSample> data;
  for (int s = 0; s < n; ++s) {
    double x = rng.Uniform(0.1, 0.5);
    double y = rng.Uniform(0.1, 0.5);
    double vx = 0.04, vy = 0.02;
    meta::TrainingSample sample;
    for (int t = 0; t < seq_in; ++t) {
      sample.input.push_back({x + vx * t, y + vy * t});
    }
    for (int t = 0; t < seq_out; ++t) {
      sample.target.push_back({x + vx * (seq_in + t), y + vy * (seq_in + t)});
    }
    data.push_back(std::move(sample));
  }
  return data;
}

/// One epoch of per-sample SGD steps (clipped at 5, rate 0.2); returns
/// the mean loss seen before each step.
double SgdEpoch(const EncoderDecoder& model, std::vector<double>& params,
                const std::vector<meta::TrainingSample>& data) {
  const meta::MetaTrainConfig plain;
  std::vector<double> grad(params.size());
  double total = 0.0;
  for (const meta::TrainingSample& sample : data) {
    std::fill(grad.begin(), grad.end(), 0.0);
    total += meta::BatchLossAndGradient(model, params, {sample}, plain, grad);
    ClipGradientNorm(grad, 5.0);
    for (size_t i = 0; i < params.size(); ++i) params[i] -= 0.2 * grad[i];
  }
  return total / static_cast<double>(data.size());
}

/// Predictions for every window through one PredictBatch.
std::vector<Sequence> PredictAll(const EncoderDecoder& model,
                                 const std::vector<double>& params,
                                 const std::vector<Sequence>& inputs) {
  std::vector<const std::vector<double>*> row_params(inputs.size(), &params);
  std::vector<const Sequence*> rows;
  for (const Sequence& input : inputs) rows.push_back(&input);
  RolloutScratch scratch;
  std::vector<Sequence> out;
  model.PredictBatch(row_params, rows, &out, scratch);
  return out;
}

TEST(EncoderDecoderTrainingTest, LossDecreasesUnderSgd) {
  tamp::Rng rng(11);
  Seq2SeqConfig config;
  config.hidden_dim = 8;
  config.seq_out = 1;
  EncoderDecoder model(config);
  std::vector<double> params = model.InitParams(rng);
  const std::vector<meta::TrainingSample> data = MakeToyData(16, 4, 1, rng);
  const meta::MetaTrainConfig plain;
  std::vector<double> grad(params.size(), 0.0);

  double initial = meta::BatchLossAndGradient(model, params, data, plain, grad);
  for (int e = 0; e < 60; ++e) SgdEpoch(model, params, data);
  std::fill(grad.begin(), grad.end(), 0.0);
  double trained = meta::BatchLossAndGradient(model, params, data, plain, grad);
  EXPECT_LT(trained, initial * 0.3)
      << "initial=" << initial << " trained=" << trained;
}

TEST(EncoderDecoderTrainingTest, PredictionApproachesTarget) {
  tamp::Rng rng(13);
  Seq2SeqConfig config;
  config.hidden_dim = 8;
  EncoderDecoder model(config);
  std::vector<double> params = model.InitParams(rng);
  const std::vector<meta::TrainingSample> data = MakeToyData(16, 4, 1, rng);
  for (int e = 0; e < 150; ++e) SgdEpoch(model, params, data);

  // Mean absolute prediction error should be small on training data.
  std::vector<Sequence> inputs;
  for (const meta::TrainingSample& sample : data) {
    inputs.push_back(sample.input);
  }
  const std::vector<Sequence> preds = PredictAll(model, params, inputs);
  double err = 0.0;
  int count = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    for (size_t t = 0; t < preds[i].size(); ++t) {
      for (size_t d = 0; d < preds[i][t].size(); ++d) {
        err += std::fabs(preds[i][t][d] - data[i].target[t][d]);
        ++count;
      }
    }
  }
  EXPECT_LT(err / count, 0.05);
}

TEST(EncoderDecoderTest, PredictIsDeterministic) {
  tamp::Rng rng(17);
  Seq2SeqConfig config;
  EncoderDecoder model(config);
  std::vector<double> params = model.InitParams(rng);
  const std::vector<Sequence> inputs = {{{0.1, 0.2}, {0.3, 0.4}}};
  EXPECT_EQ(PredictAll(model, params, inputs),
            PredictAll(model, params, inputs));
}

TEST(EncoderDecoderTest, SeqOutControlsPredictionLength) {
  tamp::Rng rng(19);
  for (int seq_out : {1, 2, 3}) {
    Seq2SeqConfig config;
    config.seq_out = seq_out;
    EncoderDecoder model(config);
    std::vector<double> params = model.InitParams(rng);
    Sequence pred = PredictAll(model, params, {{{0.5, 0.5}}})[0];
    EXPECT_EQ(static_cast<int>(pred.size()), seq_out);
    for (const auto& step : pred) EXPECT_EQ(step.size(), 2u);
  }
}

TEST(EncoderDecoderTest, ParamCountMatchesLayout) {
  Seq2SeqConfig config;
  config.input_dim = 2;
  config.hidden_dim = 16;
  config.output_dim = 2;
  EncoderDecoder model(config);
  size_t h4 = 4 * 16;
  size_t enc = h4 * 2 + h4 * 16 + h4;
  size_t dec = h4 * 2 + h4 * 16 + h4;
  size_t readout = 16 * 2 + 2;
  EXPECT_EQ(model.param_count(), enc + dec + readout);
  EXPECT_EQ(model.decoder().offset(), enc);
  EXPECT_EQ(model.readout().offset(), enc + dec);
}

TEST(EncoderDecoderTest, InitParamsDependOnSeed) {
  Seq2SeqConfig config;
  EncoderDecoder model(config);
  tamp::Rng a(1), b(1), c(2);
  EXPECT_EQ(model.InitParams(a), model.InitParams(b));
  EXPECT_NE(model.InitParams(a), model.InitParams(c));
}

}  // namespace
}  // namespace tamp::nn
