// Parameterized property sweeps over the neural substrate: gradient
// correctness and shape invariants of the production engine
// (nn::EncoderDecoder's PredictBatch and the training pass behind
// meta::BatchLossAndGradient) must hold for every architecture the
// experiments instantiate (hidden sizes, input dims, seq_out).
#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "meta/learning_task.h"
#include "meta/meta_training.h"
#include "nn/encoder_decoder.h"

namespace tamp::nn {
namespace {

struct Arch {
  int input_dim;
  int hidden_dim;
  int seq_out;
  int seq_in;
};

class ArchSweep : public ::testing::TestWithParam<Arch> {};

Sequence RandomSequence(int steps, int dim, tamp::Rng& rng) {
  Sequence seq(steps);
  for (auto& step : seq) {
    step.resize(dim);
    for (double& v : step) v = rng.Uniform(0.0, 1.0);
  }
  return seq;
}

EncoderDecoder ModelFor(const Arch& arch) {
  Seq2SeqConfig config;
  config.input_dim = arch.input_dim;
  config.hidden_dim = arch.hidden_dim;
  config.seq_out = arch.seq_out;
  return EncoderDecoder(config);
}

/// `count` random (input, target) samples of the architecture's shape.
std::vector<meta::TrainingSample> RandomSamples(const Arch& arch, int count,
                                                tamp::Rng& rng) {
  std::vector<meta::TrainingSample> samples(count);
  for (meta::TrainingSample& sample : samples) {
    sample.input = RandomSequence(arch.seq_in, arch.input_dim, rng);
    sample.target = RandomSequence(arch.seq_out, 2, rng);
  }
  return samples;
}

/// One window's prediction through a one-row PredictBatch.
Sequence PredictOne(const EncoderDecoder& model,
                    const std::vector<double>& params, const Sequence& input) {
  RolloutScratch scratch;
  std::vector<Sequence> out;
  model.PredictBatch({&params}, {&input}, &out, scratch);
  return out[0];
}

TEST_P(ArchSweep, GradientMatchesFiniteDifferences) {
  const Arch arch = GetParam();
  EncoderDecoder model = ModelFor(arch);
  tamp::Rng rng(31 + arch.hidden_dim);
  std::vector<double> params = model.InitParams(rng);
  const std::vector<meta::TrainingSample> samples =
      RandomSamples(arch, 3, rng);
  const meta::MetaTrainConfig plain;

  std::vector<double> grad(params.size(), 0.0);
  meta::BatchLossAndGradient(model, params, samples, plain, grad);

  // Spot-check a deterministic subset of coordinates against central
  // differences (full sweeps run in nn_gradient_check_test).
  auto loss_at = [&](const std::vector<double>& p) {
    std::vector<double> unused(p.size(), 0.0);
    return meta::BatchLossAndGradient(model, p, samples, plain, unused);
  };
  const double h = 1e-6;
  for (size_t i = 0; i < params.size(); i += params.size() / 17 + 1) {
    std::vector<double> plus = params, minus = params;
    plus[i] += h;
    minus[i] -= h;
    double numeric = (loss_at(plus) - loss_at(minus)) / (2.0 * h);
    double denom = std::max({std::fabs(grad[i]), std::fabs(numeric), 1e-4});
    EXPECT_LT(std::fabs(grad[i] - numeric) / denom, 1e-4)
        << "param " << i << " analytic " << grad[i] << " numeric " << numeric;
  }
}

TEST_P(ArchSweep, PredictShapesAreConsistent) {
  const Arch arch = GetParam();
  EncoderDecoder model = ModelFor(arch);
  tamp::Rng rng(7);
  std::vector<double> params = model.InitParams(rng);
  Sequence input = RandomSequence(arch.seq_in, arch.input_dim, rng);
  Sequence pred = PredictOne(model, params, input);
  ASSERT_EQ(static_cast<int>(pred.size()), arch.seq_out);
  for (const auto& step : pred) {
    ASSERT_EQ(static_cast<int>(step.size()), model.config().output_dim);
    for (double v : step) EXPECT_TRUE(std::isfinite(v));
  }
}

/// The loss is non-negative, and zero with a zero gradient when the
/// target is the model's own prediction: teacher forcing then feeds the
/// decoder the inputs it fed itself, so the training forward reproduces
/// the prediction exactly.
TEST_P(ArchSweep, LossIsNonNegativeAndZeroAtTarget) {
  const Arch arch = GetParam();
  EncoderDecoder model = ModelFor(arch);
  tamp::Rng rng(11);
  std::vector<double> params = model.InitParams(rng);
  std::vector<meta::TrainingSample> samples = RandomSamples(arch, 2, rng);
  const meta::MetaTrainConfig plain;
  std::vector<double> grad(params.size(), 0.0);
  EXPECT_GE(meta::BatchLossAndGradient(model, params, samples, plain, grad),
            0.0);

  for (meta::TrainingSample& sample : samples) {
    sample.target = PredictOne(model, params, sample.input);
  }
  std::fill(grad.begin(), grad.end(), 0.0);
  EXPECT_EQ(meta::BatchLossAndGradient(model, params, samples, plain, grad),
            0.0);
  for (double g : grad) EXPECT_EQ(g, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, ArchSweep,
    ::testing::Values(Arch{2, 4, 1, 3}, Arch{2, 8, 2, 5}, Arch{3, 4, 1, 5},
                      Arch{3, 6, 3, 4}, Arch{2, 4, 1, 1}, Arch{3, 12, 2, 10}));

}  // namespace
}  // namespace tamp::nn
