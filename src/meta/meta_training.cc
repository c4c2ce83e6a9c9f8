#include "meta/meta_training.h"

#include <algorithm>
#include <array>

#include "common/check.h"
#include "common/obs/metrics.h"
#include "common/obs/trace.h"
#include "common/parallel.h"
#include "nn/optimizer.h"

namespace tamp::meta {

std::vector<double> SampleWeights(const MetaTrainConfig& config,
                                  const TrainingSample& sample) {
  if (!config.weight_fn) return {};
  std::vector<double> weights;
  weights.reserve(sample.target_km.size());
  for (const auto& p : sample.target_km) weights.push_back(config.weight_fn(p));
  return weights;
}

size_t EqualLengthRunEnd(const std::vector<TrainingSample>& samples,
                         size_t begin) {
  TAMP_CHECK(begin < samples.size());
  const size_t length = samples[begin].input.size();
  size_t end = begin + 1;
  while (end < samples.size() && samples[end].input.size() == length) ++end;
  return end;
}

std::vector<std::vector<double>> BatchSampleWeights(
    const MetaTrainConfig& config, const std::vector<TrainingSample>& samples) {
  std::vector<std::vector<double>> weights;
  if (!config.weight_fn) return weights;  // Empty: uniform for every sample.
  weights.reserve(samples.size());
  for (const TrainingSample& sample : samples) {
    weights.push_back(SampleWeights(config, sample));
  }
  return weights;
}

double BatchLossAndGradient(const nn::EncoderDecoder& model,
                            const std::vector<double>& params,
                            const std::vector<TrainingSample>& samples,
                            const std::vector<std::vector<double>>& weights,
                            std::vector<double>& grad) {
  TAMP_CHECK(!samples.empty());
  TAMP_CHECK(grad.size() == params.size());
  TAMP_CHECK(weights.empty() || weights.size() == samples.size());
  // The scratch is grow-only per thread, so a call allocates nothing once
  // warm.
  thread_local nn::TrainScratch scratch;
  std::array<nn::TrainSample, nn::EncoderDecoder::kTrainTileCols> tile;
  const double inv = 1.0 / static_cast<double>(samples.size());
  double loss_sum = 0.0;
  // Tiles: each maximal run of equal-length samples, cut into pieces of
  // at most kTrainTileCols.
  size_t begin = 0;
  while (begin < samples.size()) {
    const size_t run_end = EqualLengthRunEnd(samples, begin);
    while (begin < run_end) {
      const size_t end = std::min(run_end, begin + tile.size());
      for (size_t s = begin; s < end; ++s) {
        tile[s - begin] = {&samples[s].input, &samples[s].target,
                           weights.empty() ? nullptr : &weights[s]};
      }
      model.TrainTile(params, {tile.data(), end - begin}, inv, loss_sum,
                      grad, scratch);
      begin = end;
    }
  }
  // Plain division (not * inv) keeps the loss bit-identical to the
  // pre-optimization code path.
  return loss_sum / static_cast<double>(samples.size());
}

double BatchLossAndGradient(const nn::EncoderDecoder& model,
                            const std::vector<double>& params,
                            const std::vector<TrainingSample>& samples,
                            const MetaTrainConfig& config,
                            std::vector<double>& grad) {
  return BatchLossAndGradient(model, params, samples,
                              BatchSampleWeights(config, samples), grad);
}

std::vector<double> AdaptKSteps(const nn::EncoderDecoder& model,
                                const std::vector<double>& theta,
                                const std::vector<TrainingSample>& samples,
                                int steps, double beta,
                                const MetaTrainConfig& config) {
  std::vector<double> adapted = theta;
  if (samples.empty()) return adapted;
  // f_w only depends on the sample targets: evaluate it once per sample
  // here instead of once per sample per step inside the loop.
  std::vector<std::vector<double>> weights =
      BatchSampleWeights(config, samples);
  std::vector<double> grad(theta.size());
  for (int s = 0; s < steps; ++s) {
    std::fill(grad.begin(), grad.end(), 0.0);
    BatchLossAndGradient(model, adapted, samples, weights, grad);
    nn::ClipGradientNorm(grad, config.grad_clip);
    for (size_t i = 0; i < adapted.size(); ++i) adapted[i] -= beta * grad[i];
  }
  return adapted;
}

std::vector<MetaTrainResult> MetaTrainClusters(
    const nn::EncoderDecoder& model, const std::vector<LearningTask>& tasks,
    const std::vector<MetaTrainCluster>& clusters,
    const MetaTrainConfig& config, Rng& rng) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& iterations_counter =
      registry.GetCounter("meta.iterations");
  static obs::Counter& adapt_steps_counter =
      registry.GetCounter("meta.adapt_steps");
  static obs::Gauge& query_loss_gauge =
      registry.GetGauge("meta.avg_query_loss");

  obs::TraceSpan train_span("meta.train");
  const size_t iterations = static_cast<size_t>(std::max(config.iterations, 0));
  std::vector<MetaTrainResult> results(clusters.size());
  // Alg. 3 line 2, for every cluster and iteration up front: sample a batch
  // of m member tasks. The shared rng is consumed only here, on the calling
  // thread, in the order one-cluster-at-a-time training would draw
  // (cluster by cluster, then iteration by iteration). The per-pick work
  // below is RNG-free, so no sub-Rng derivation is needed and 1-thread and
  // N-thread runs are bit-identical. pick_task[iter] lists the iteration's
  // sampled task ids cluster after cluster; the batch size is the same
  // every iteration, so cluster c's picks always occupy
  // [first_pick[c], first_pick[c + 1]).
  std::vector<std::vector<int>> pick_task(iterations);
  std::vector<size_t> first_pick(clusters.size() + 1, 0);
  std::vector<size_t> pick_cluster;  // The cluster of each pick slot.
  for (size_t c = 0; c < clusters.size(); ++c) {
    const std::vector<int>& members = *clusters[c].members;
    TAMP_CHECK(!members.empty());
    TAMP_CHECK(clusters[c].theta->size() == model.param_count());
    results[c].meta_gradient.assign(model.param_count(), 0.0);
    size_t m = static_cast<size_t>(
        std::min<int>(config.batch_size, static_cast<int>(members.size())));
    for (size_t iter = 0; iter < iterations; ++iter) {
      for (size_t b : rng.SampleWithoutReplacement(members.size(), m)) {
        pick_task[iter].push_back(members[b]);
      }
    }
    first_pick[c + 1] = first_pick[c] + m;
    pick_cluster.insert(pick_cluster.end(), m, c);
  }

  // One sampled pick's adapt + query-loss result. Computed independently
  // per pick (Alg. 3 lines 4-8 touch only its cluster's theta, the task's
  // own data, and pick-local buffers), so the picks of every cluster fan
  // out over the thread pool together.
  struct PickResult {
    double query_loss = 0.0;
    bool contributing = false;
    std::vector<double> contribution;  // This pick's meta-gradient term.
  };
  std::vector<bool> had_contributing(clusters.size(), false);

  for (size_t iter = 0; iter < iterations; ++iter) {
    iterations_counter.Increment(static_cast<int64_t>(clusters.size()));
    std::vector<PickResult> picks = ParallelMap<PickResult>(
        pick_cluster.size(), [&](size_t p) {
          PickResult out;
          const std::vector<double>& theta = *clusters[pick_cluster[p]].theta;
          const LearningTask& task =
              tasks[static_cast<size_t>(pick_task[iter][p])];
          if (task.support.empty() || task.query.empty()) return out;
          // Alg. 3 lines 4-7: adapt k steps on the support set.
          std::vector<double> adapted =
              AdaptKSteps(model, theta, task.support, config.adapt_steps,
                          config.beta, config);
          adapt_steps_counter.Increment(config.adapt_steps);
          // Alg. 3 line 8: query loss at the adapted parameters.
          std::vector<double> query_grad(theta.size(), 0.0);
          out.query_loss = BatchLossAndGradient(model, adapted, task.query,
                                                config, query_grad);
          if (config.update_rule == MetaUpdateRule::kFomaml) {
            // First-order MAML: the query gradient at theta_i is this
            // task's contribution to the meta-gradient.
            out.contribution = std::move(query_grad);
          } else {
            // Reptile: move toward the adapted parameters; expressed as a
            // gradient so the same meta step applies.
            double inv_beta = 1.0 / config.beta;
            out.contribution.resize(theta.size());
            for (size_t i = 0; i < theta.size(); ++i) {
              out.contribution[i] = (theta[i] - adapted[i]) * inv_beta;
            }
          }
          out.contributing = true;
          return out;
        });

    // Per-cluster ordered reduction: accumulate the cluster's picks in pick
    // order, exactly as the serial loop did, so each meta step is
    // bit-identical at any thread count.
    for (size_t c = 0; c < clusters.size(); ++c) {
      std::vector<double>& theta = *clusters[c].theta;
      MetaTrainResult& result = results[c];
      std::fill(result.meta_gradient.begin(), result.meta_gradient.end(), 0.0);
      double loss_sum = 0.0;
      int contributing = 0;
      for (size_t p = first_pick[c]; p < first_pick[c + 1]; ++p) {
        const PickResult& pick = picks[p];
        if (!pick.contributing) continue;
        for (size_t i = 0; i < theta.size(); ++i) {
          result.meta_gradient[i] += pick.contribution[i];
        }
        loss_sum += pick.query_loss;
        ++contributing;
      }
      if (contributing == 0) continue;
      double inv = 1.0 / static_cast<double>(contributing);
      for (double& g : result.meta_gradient) g *= inv;
      nn::ClipGradientNorm(result.meta_gradient, config.grad_clip);
      // Alg. 3 line 9: meta update.
      for (size_t i = 0; i < theta.size(); ++i) {
        theta[i] -= config.alpha * result.meta_gradient[i];
      }
      result.avg_query_loss = loss_sum * inv;
      had_contributing[c] = true;
    }
  }
  // The gauge ends where one-cluster-at-a-time training left it: the last
  // cluster with a contributing iteration, at its last such iteration.
  for (size_t c = 0; c < clusters.size(); ++c) {
    if (had_contributing[c]) query_loss_gauge.Set(results[c].avg_query_loss);
  }
  return results;
}

MetaTrainResult MetaTrain(const nn::EncoderDecoder& model,
                          const std::vector<LearningTask>& tasks,
                          const std::vector<int>& members,
                          std::vector<double>& theta,
                          const MetaTrainConfig& config, Rng& rng) {
  return std::move(
      MetaTrainClusters(model, tasks, {{&members, &theta}}, config, rng)[0]);
}

double FineTune(const nn::EncoderDecoder& model, const LearningTask& task,
                std::vector<double>& theta, int steps, double learning_rate,
                const MetaTrainConfig& config) {
  std::vector<TrainingSample> samples = task.support;
  samples.insert(samples.end(), task.query.begin(), task.query.end());
  if (samples.empty() || steps <= 0) return 0.0;
  // As in AdaptKSteps: sample weights are step-invariant, compute once.
  std::vector<std::vector<double>> weights =
      BatchSampleWeights(config, samples);
  nn::Adam optimizer(theta.size(), learning_rate);
  std::vector<double> grad(theta.size());
  double loss = 0.0;
  for (int s = 0; s < steps; ++s) {
    std::fill(grad.begin(), grad.end(), 0.0);
    loss = BatchLossAndGradient(model, theta, samples, weights, grad);
    nn::ClipGradientNorm(grad, config.grad_clip);
    optimizer.Step(theta, grad);
  }
  return loss;
}

similarity::GradientPath ComputeGradientPath(
    const nn::EncoderDecoder& model, const LearningTask& task,
    const std::vector<double>& probe_theta, int steps, double beta,
    const similarity::RandomProjector& projector) {
  TAMP_CHECK(probe_theta.size() == model.param_count());
  TAMP_CHECK(projector.input_dim() == model.param_count());
  similarity::GradientPath path;
  path.reserve(static_cast<size_t>(steps));
  MetaTrainConfig plain;  // Uniform weights for the probe.
  std::vector<double> theta = probe_theta;
  std::vector<double> grad(theta.size());
  const std::vector<TrainingSample>& samples =
      task.support.empty() ? task.query : task.support;
  for (int s = 0; s < steps; ++s) {
    std::fill(grad.begin(), grad.end(), 0.0);
    if (!samples.empty()) {
      BatchLossAndGradient(model, theta, samples, plain, grad);
      nn::ClipGradientNorm(grad, plain.grad_clip);
    }
    path.push_back(projector.Project(grad));
    for (size_t i = 0; i < theta.size(); ++i) theta[i] -= beta * grad[i];
  }
  return path;
}

}  // namespace tamp::meta
