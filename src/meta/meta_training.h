#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "meta/learning_task.h"
#include "nn/encoder_decoder.h"
#include "similarity/learning_path.h"

namespace tamp::meta {

/// How the meta-gradient of Alg. 3 line 9 is formed.
enum class MetaUpdateRule {
  /// First-order MAML: the query-loss gradient at the adapted parameters
  /// (the default; see DESIGN.md for why this substitutes for the paper's
  /// second-order MAML).
  kFomaml,
  /// Reptile (Nichol et al.): the negated adaptation displacement
  /// (theta - theta_adapted) / beta. Cheaper — no query backward pass —
  /// and a useful ablation of the meta-update itself.
  kReptile,
};

/// Hyper-parameters of the meta-training loop (Algorithm 3) and the
/// per-worker adaptation that follows it.
struct MetaTrainConfig {
  double alpha = 0.05;   // Meta learning rate (outer update).
  double beta = 0.1;     // Adapt learning rate (inner update).
  int adapt_steps = 3;   // k inner steps per sampled task.
  int batch_size = 4;    // m tasks sampled per meta iteration.
  int iterations = 25;   // Meta iterations per leaf cluster.
  double grad_clip = 5.0;
  MetaUpdateRule update_rule = MetaUpdateRule::kFomaml;

  /// Per-location loss weight f_w (Eq. 7) evaluated at the ground-truth
  /// target points; empty means uniform weights (plain MSE), which is what
  /// the *-loss baseline variants use.
  std::function<double(const geo::Point&)> weight_fn;
};

/// Output of one Meta-Training run on a cluster.
struct MetaTrainResult {
  /// Average query loss of the last iteration in which some pick
  /// contributed (Alg. 3 line 10); 0 when no iteration had one.
  double avg_query_loss = 0.0;
  /// The final iteration's clipped mean meta-gradient (first-order), used
  /// by TAML's non-leaf updates; all zeros when no pick of the final
  /// iteration contributed.
  std::vector<double> meta_gradient;
};

/// One cluster of a MetaTrainClusters call: its member task ids (indexes
/// into `tasks`, non-empty) and the theta Meta-Training updates in place.
struct MetaTrainCluster {
  const std::vector<int>* members = nullptr;
  std::vector<double>* theta = nullptr;
};

/// Loss-step weights for a sample: f_w applied to each target point, or
/// empty (uniform) when no weight function is configured.
std::vector<double> SampleWeights(const MetaTrainConfig& config,
                                  const TrainingSample& sample);

/// SampleWeights for every sample of a batch, evaluated once. Returns an
/// empty outer vector when no weight function is configured (uniform).
/// Weights only depend on the sample targets, so multi-step loops (inner
/// adaptation, fine-tuning) compute them once instead of per step.
std::vector<std::vector<double>> BatchSampleWeights(
    const MetaTrainConfig& config, const std::vector<TrainingSample>& samples);

/// End of the maximal run of consecutive samples from `begin` whose inputs
/// have samples[begin]'s length: one forecast batch of Evaluate, and the
/// span BatchLossAndGradient cuts into training tiles.
size_t EqualLengthRunEnd(const std::vector<TrainingSample>& samples,
                         size_t begin);

/// Average training loss and (accumulated) gradient of `params` over a set
/// of samples. Returns the mean loss; the mean gradient is *added* into
/// `grad` (which must be zeroed by the caller if desired).
///
/// The samples run on the calling thread through the SoA training engine
/// (nn::EncoderDecoder::TrainTile) in tiles of consecutive equal-length
/// samples, at most kTrainTileCols wide (each maximal run of one input
/// length cut in order), on a grow-only per-thread scratch. The loss and
/// gradient are bitwise equal to summing the scalar one-sample chain
/// (tests/nn_oracle.h) sample by sample (each sample's gradient from zero,
/// added * 1/n in sample order; DESIGN.md §4i).
double BatchLossAndGradient(const nn::EncoderDecoder& model,
                            const std::vector<double>& params,
                            const std::vector<TrainingSample>& samples,
                            const MetaTrainConfig& config,
                            std::vector<double>& grad);

/// Same, with the per-sample weights precomputed via BatchSampleWeights
/// (the hot path for multi-step loops).
double BatchLossAndGradient(const nn::EncoderDecoder& model,
                            const std::vector<double>& params,
                            const std::vector<TrainingSample>& samples,
                            const std::vector<std::vector<double>>& weights,
                            std::vector<double>& grad);

/// Adapts `theta` for `steps` SGD steps of rate `beta` on the samples,
/// returning the adapted copy (the MAML inner loop, Alg. 3 lines 4-7).
std::vector<double> AdaptKSteps(const nn::EncoderDecoder& model,
                                const std::vector<double>& theta,
                                const std::vector<TrainingSample>& samples,
                                int steps, double beta,
                                const MetaTrainConfig& config);

/// Meta-Training (Algorithm 3) on several independent clusters in
/// lockstep. Each iteration samples m member tasks per cluster, adapts k
/// steps on each task's support set, and applies the cluster's mean query
/// gradient at the adapted parameters to its theta. Every cluster's
/// batches are drawn from `rng` up front, cluster by cluster and then
/// iteration by iteration, so the draws and each cluster's arithmetic
/// equal running MetaTrain on the clusters one after another; each
/// iteration then fans out the picks of all clusters at once. The
/// meta.iterations / meta.adapt_steps totals and the final
/// meta.avg_query_loss also equal that serial run's. Returns one result
/// per cluster, in order.
std::vector<MetaTrainResult> MetaTrainClusters(
    const nn::EncoderDecoder& model, const std::vector<LearningTask>& tasks,
    const std::vector<MetaTrainCluster>& clusters,
    const MetaTrainConfig& config, Rng& rng);

/// Meta-Training (Algorithm 3) on one cluster of learning tasks using
/// first-order MAML: MetaTrainClusters with the single cluster
/// {`members`, `theta`}. `members` indexes into `tasks`.
MetaTrainResult MetaTrain(const nn::EncoderDecoder& model,
                          const std::vector<LearningTask>& tasks,
                          const std::vector<int>& members,
                          std::vector<double>& theta,
                          const MetaTrainConfig& config, Rng& rng);

/// Per-worker fine-tuning after meta-initialization: `steps` Adam steps on
/// the worker's support + query data. Returns the final training loss.
double FineTune(const nn::EncoderDecoder& model, const LearningTask& task,
                std::vector<double>& theta, int steps, double learning_rate,
                const MetaTrainConfig& config);

/// Records the k-step gradient path Z^(i) of a learning task (Section
/// III-B "Learning path"): the gradient produced at each of the first k
/// adaptation steps starting from the shared probe parameters, each
/// random-projected by `projector` so the cosine similarity (Eq. 2) stays
/// cheap.
similarity::GradientPath ComputeGradientPath(
    const nn::EncoderDecoder& model, const LearningTask& task,
    const std::vector<double>& probe_theta, int steps, double beta,
    const similarity::RandomProjector& projector);

}  // namespace tamp::meta
