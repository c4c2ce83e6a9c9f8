// Bit-identity of the SoA training engine (nn::BatchedSeq2Seq::TrainTile
// behind meta::BatchLossAndGradient) against its scalar oracle: the
// per-sample EncoderDecoder::LossAndGradient loop that BatchLossAndGradient
// ran before it was batched, kept here. Loss and gradient are compared bit
// for bit at the tile edges, for teacher forcing (seq_out 3), both input
// widths, two hidden sizes, with and without Eq. 7 step weights, across an
// input-length change and on a scratch that shrinks and then grows; the
// training loops built on it (AdaptKSteps, FineTune, MetaTrainClusters)
// are compared against oracle loops and across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "meta/learning_task.h"
#include "meta/meta_training.h"
#include "nn/batched_seq2seq.h"
#include "nn/encoder_decoder.h"
#include "nn/optimizer.h"

namespace tamp::meta {
namespace {

constexpr size_t kTile = nn::BatchedSeq2Seq::kTrainTileCols;

/// Restores the parallel thread count on scope exit.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int threads) : saved_(ParallelThreadCount()) {
    SetParallelThreadCount(threads);
  }
  ~ThreadCountGuard() { SetParallelThreadCount(saved_); }

 private:
  int saved_;
};

/// The oracle: one scalar LossAndGradient per sample into a zeroed
/// per-sample gradient, added * 1/n in sample order.
double OracleLossAndGradient(const nn::EncoderDecoder& model,
                             const std::vector<double>& params,
                             const std::vector<TrainingSample>& samples,
                             const std::vector<std::vector<double>>& weights,
                             std::vector<double>& grad) {
  static const std::vector<double> kUniform;
  std::vector<double> sample_grad(params.size(), 0.0);
  double loss_sum = 0.0;
  const double inv = 1.0 / static_cast<double>(samples.size());
  for (size_t s = 0; s < samples.size(); ++s) {
    std::fill(sample_grad.begin(), sample_grad.end(), 0.0);
    loss_sum += model.LossAndGradient(params, samples[s].input,
                                      samples[s].target,
                                      weights.empty() ? kUniform : weights[s],
                                      sample_grad);
    for (size_t i = 0; i < grad.size(); ++i) grad[i] += sample_grad[i] * inv;
  }
  return loss_sum / static_cast<double>(samples.size());
}

::testing::AssertionResult BitEqual(double a, double b) {
  if (std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ in their bits";
}

void ExpectBitEqual(const std::vector<double>& a, const std::vector<double>& b,
                    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  size_t mismatches = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!BitEqual(a[i], b[i]) && ++mismatches <= 3) {
      ADD_FAILURE() << what << ": element " << i << ": " << a[i] << " vs "
                    << b[i];
    }
  }
  EXPECT_EQ(mismatches, 0u) << what;
}

TrainingSample MakeSample(Rng& rng, int seq_in, int input_dim, int seq_out) {
  TrainingSample sample;
  for (int t = 0; t < seq_in; ++t) {
    std::vector<double> step;
    for (int d = 0; d < input_dim; ++d) step.push_back(rng.Uniform01());
    sample.input.push_back(std::move(step));
  }
  for (int t = 0; t < seq_out; ++t) {
    sample.target.push_back({rng.Uniform01(), rng.Uniform01()});
    sample.target_km.push_back(
        {sample.target.back()[0] * 20.0, sample.target.back()[1] * 10.0});
  }
  return sample;
}

std::vector<TrainingSample> MakeSamples(Rng& rng, size_t count, int seq_in,
                                        int input_dim, int seq_out) {
  std::vector<TrainingSample> samples;
  for (size_t s = 0; s < count; ++s) {
    samples.push_back(MakeSample(rng, seq_in, input_dim, seq_out));
  }
  return samples;
}

MetaTrainConfig WeightedConfig() {
  MetaTrainConfig config;
  config.weight_fn = [](const geo::Point& p) { return 0.5 + 0.07 * p.x; };
  return config;
}

/// BatchLossAndGradient and the oracle on the same samples, both adding
/// into the same non-zero starting gradient.
void ExpectMatchesOracle(const nn::EncoderDecoder& model,
                         const std::vector<double>& params,
                         const std::vector<TrainingSample>& samples,
                         const MetaTrainConfig& config,
                         const std::string& what) {
  Rng rng(99);
  std::vector<double> start(params.size());
  for (double& g : start) g = rng.Uniform(-0.01, 0.01);
  const std::vector<std::vector<double>> weights =
      BatchSampleWeights(config, samples);
  std::vector<double> oracle_grad = start;
  const double oracle_loss =
      OracleLossAndGradient(model, params, samples, weights, oracle_grad);
  std::vector<double> grad = start;
  const double loss = BatchLossAndGradient(model, params, samples, config,
                                           grad);
  EXPECT_TRUE(BitEqual(loss, oracle_loss)) << what;
  ExpectBitEqual(grad, oracle_grad, what);
}

TEST(BatchedGradientTest, MatchesScalarOracleAtTileEdges) {
  const size_t counts[] = {1, kTile - 1, kTile, kTile + 1, 2 * kTile + 3};
  for (int seq_out : {1, 3}) {
    for (int input_dim : {2, 3}) {
      for (int hidden : {5, 16}) {
        nn::Seq2SeqConfig shape;
        shape.input_dim = input_dim;
        shape.hidden_dim = hidden;
        shape.seq_out = seq_out;
        nn::EncoderDecoder model(shape);
        Rng rng(static_cast<uint64_t>(1000 * seq_out + 100 * input_dim +
                                      hidden));
        const std::vector<double> params = model.InitParams(rng);
        for (size_t count : counts) {
          const std::vector<TrainingSample> samples =
              MakeSamples(rng, count, 5, input_dim, seq_out);
          for (bool weighted : {false, true}) {
            const std::string what =
                "seq_out " + std::to_string(seq_out) + ", input_dim " +
                std::to_string(input_dim) + ", hidden " +
                std::to_string(hidden) + ", " + std::to_string(count) +
                " samples" + (weighted ? ", weighted" : "");
            ExpectMatchesOracle(model, params, samples,
                                weighted ? WeightedConfig()
                                         : MetaTrainConfig(),
                                what);
          }
        }
      }
    }
  }
}

/// Input lengths 4 (7 samples), 6 (20), 1 (2), 4 (3): tiles end at each
/// change, and the run longer than a tile splits into a full tile and a
/// remainder.
TEST(BatchedGradientTest, MatchesScalarOracleWhenInputLengthChanges) {
  nn::Seq2SeqConfig shape;
  shape.input_dim = 3;
  shape.seq_out = 2;
  nn::EncoderDecoder model(shape);
  Rng rng(5);
  const std::vector<double> params = model.InitParams(rng);
  std::vector<TrainingSample> samples;
  for (const auto& [count, length] :
       std::vector<std::pair<int, int>>{{7, 4}, {20, 6}, {2, 1}, {3, 4}}) {
    for (int s = 0; s < count; ++s) {
      samples.push_back(MakeSample(rng, length, 3, 2));
    }
  }
  EXPECT_EQ(EqualLengthRunEnd(samples, 0), 7u);
  EXPECT_EQ(EqualLengthRunEnd(samples, 7), 27u);
  EXPECT_EQ(EqualLengthRunEnd(samples, 20), 27u);
  EXPECT_EQ(EqualLengthRunEnd(samples, 27), 29u);
  EXPECT_EQ(EqualLengthRunEnd(samples, 29), 32u);
  for (bool weighted : {false, true}) {
    ExpectMatchesOracle(model, params, samples,
                        weighted ? WeightedConfig() : MetaTrainConfig(),
                        weighted ? "mixed lengths, weighted"
                                 : "mixed lengths");
  }
}

/// TrainTile straight, on one scratch reused across shapes: long windows
/// and full tiles, then short windows and a narrow tile, then long again.
/// Every call must equal the same call on a fresh scratch and the oracle.
TEST(BatchedGradientTest, ScratchShrinkThenGrowParity) {
  struct Shape {
    int hidden, seq_in, seq_out;
    size_t width;
  };
  const Shape shapes[] = {{16, 8, 3, kTile}, {5, 2, 1, 3}, {16, 8, 3, kTile}};
  nn::TrainScratch shared;
  Rng rng(21);
  for (const Shape& shape : shapes) {
    nn::Seq2SeqConfig config;
    config.input_dim = 3;
    config.hidden_dim = shape.hidden;
    config.seq_out = shape.seq_out;
    nn::EncoderDecoder model(config);
    nn::BatchedSeq2Seq engine(config);
    const std::vector<double> params = model.InitParams(rng);
    const std::vector<TrainingSample> samples =
        MakeSamples(rng, shape.width, shape.seq_in, 3, shape.seq_out);
    const std::vector<std::vector<double>> weights =
        BatchSampleWeights(WeightedConfig(), samples);
    std::vector<nn::TrainSample> tile;
    for (size_t s = 0; s < samples.size(); ++s) {
      tile.push_back({&samples[s].input, &samples[s].target, &weights[s]});
    }
    const double inv = 1.0 / static_cast<double>(samples.size());

    double shared_loss = 0.0;
    std::vector<double> shared_grad(params.size(), 0.0);
    engine.TrainTile(params, tile, inv, shared_loss, shared_grad, shared);
    nn::TrainScratch fresh;
    double fresh_loss = 0.0;
    std::vector<double> fresh_grad(params.size(), 0.0);
    engine.TrainTile(params, tile, inv, fresh_loss, fresh_grad, fresh);
    std::vector<double> oracle_grad(params.size(), 0.0);
    const double oracle_mean =
        OracleLossAndGradient(model, params, samples, weights, oracle_grad);

    const std::string what = "hidden " + std::to_string(shape.hidden) +
                             ", seq_in " + std::to_string(shape.seq_in);
    EXPECT_TRUE(BitEqual(shared_loss, fresh_loss)) << what;
    EXPECT_TRUE(BitEqual(shared_loss / static_cast<double>(samples.size()),
                         oracle_mean))
        << what;
    ExpectBitEqual(shared_grad, fresh_grad, what + ", fresh scratch");
    ExpectBitEqual(shared_grad, oracle_grad, what + ", oracle");
  }
}

/// Samples at the e2e shape: seq_in 5, input_dim 3, seq_out 1.
std::vector<TrainingSample> TaskSamples(Rng& rng, size_t count) {
  return MakeSamples(rng, count, 5, 3, 1);
}

nn::Seq2SeqConfig E2eShape() {
  nn::Seq2SeqConfig shape;
  shape.input_dim = 3;
  shape.hidden_dim = 16;
  return shape;
}

/// AdaptKSteps' and FineTune's loops with the oracle gradient.
std::vector<double> OracleAdapt(const nn::EncoderDecoder& model,
                                const std::vector<double>& theta,
                                const std::vector<TrainingSample>& samples,
                                int steps, double beta,
                                const MetaTrainConfig& config) {
  std::vector<double> adapted = theta;
  const auto weights = BatchSampleWeights(config, samples);
  std::vector<double> grad(theta.size());
  for (int s = 0; s < steps; ++s) {
    std::fill(grad.begin(), grad.end(), 0.0);
    OracleLossAndGradient(model, adapted, samples, weights, grad);
    nn::ClipGradientNorm(grad, config.grad_clip);
    for (size_t i = 0; i < adapted.size(); ++i) adapted[i] -= beta * grad[i];
  }
  return adapted;
}

double OracleFineTune(const nn::EncoderDecoder& model,
                      const LearningTask& task, std::vector<double>& theta,
                      int steps, double learning_rate,
                      const MetaTrainConfig& config) {
  std::vector<TrainingSample> samples = task.support;
  samples.insert(samples.end(), task.query.begin(), task.query.end());
  const auto weights = BatchSampleWeights(config, samples);
  nn::Adam optimizer(theta.size(), learning_rate);
  std::vector<double> grad(theta.size());
  double loss = 0.0;
  for (int s = 0; s < steps; ++s) {
    std::fill(grad.begin(), grad.end(), 0.0);
    loss = OracleLossAndGradient(model, theta, samples, weights, grad);
    nn::ClipGradientNorm(grad, config.grad_clip);
    optimizer.Step(theta, grad);
  }
  return loss;
}

TEST(BatchedGradientTest, AdaptAndFineTuneMatchOracleAtEveryThreadCount) {
  nn::EncoderDecoder model(E2eShape());
  Rng rng(31);
  const std::vector<double> theta = model.InitParams(rng);
  std::vector<LearningTask> tasks(6);
  for (size_t t = 0; t < tasks.size(); ++t) {
    tasks[t].support = TaskSamples(rng, 3 + 7 * t);
    tasks[t].query = TaskSamples(rng, 2 + 5 * t);
  }
  const MetaTrainConfig config = WeightedConfig();

  std::vector<std::vector<double>> oracle_adapted, oracle_tuned;
  std::vector<double> oracle_loss;
  for (const LearningTask& task : tasks) {
    oracle_adapted.push_back(
        OracleAdapt(model, theta, task.support, 3, config.beta, config));
    oracle_tuned.push_back(theta);
    oracle_loss.push_back(OracleFineTune(model, task, oracle_tuned.back(), 8,
                                         0.01, config));
  }
  for (int threads : {1, 2, 4, 8}) {
    ThreadCountGuard guard(threads);
    std::vector<std::vector<double>> adapted(tasks.size());
    std::vector<std::vector<double>> tuned(tasks.size(), theta);
    std::vector<double> loss(tasks.size());
    ParallelFor(tasks.size(), [&](size_t t) {
      adapted[t] = AdaptKSteps(model, theta, tasks[t].support, 3, config.beta,
                               config);
      loss[t] = FineTune(model, tasks[t], tuned[t], 8, 0.01, config);
    });
    for (size_t t = 0; t < tasks.size(); ++t) {
      const std::string what = std::to_string(threads) + " threads, task " +
                               std::to_string(t);
      ExpectBitEqual(adapted[t], oracle_adapted[t], what + ", adapt");
      ExpectBitEqual(tuned[t], oracle_tuned[t], what + ", fine-tune");
      EXPECT_TRUE(BitEqual(loss[t], oracle_loss[t])) << what;
    }
  }
}

TEST(BatchedGradientTest, MetaTrainClustersBitIdenticalAcrossThreadCounts) {
  nn::EncoderDecoder model(E2eShape());
  Rng data_rng(41);
  std::vector<LearningTask> tasks(9);
  for (size_t t = 0; t < tasks.size(); ++t) {
    tasks[t].support = TaskSamples(data_rng, 4 + 3 * t);
    tasks[t].query = TaskSamples(data_rng, 3 + 2 * t);
  }
  const std::vector<int> a = {0, 1, 2, 3}, b = {4, 5}, c = {6, 7, 8};
  const std::vector<double> init = model.InitParams(data_rng);
  MetaTrainConfig config = WeightedConfig();
  config.iterations = 4;
  config.batch_size = 3;
  config.adapt_steps = 2;

  auto run = [&](int threads) {
    ThreadCountGuard guard(threads);
    std::vector<std::vector<double>> thetas(3, init);
    Rng rng(7);
    std::vector<MetaTrainResult> results = MetaTrainClusters(
        model, tasks, {{&a, &thetas[0]}, {&b, &thetas[1]}, {&c, &thetas[2]}},
        config, rng);
    for (const MetaTrainResult& r : results) {
      thetas.push_back(r.meta_gradient);
      thetas.push_back({r.avg_query_loss});
    }
    return thetas;
  };
  const std::vector<std::vector<double>> serial = run(1);
  for (int threads : {2, 4, 8}) {
    const std::vector<std::vector<double>> parallel = run(threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      ExpectBitEqual(parallel[i], serial[i],
                     std::to_string(threads) + " threads, output " +
                         std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace tamp::meta
