#pragma once

#include <memory>
#include <vector>

#include "cluster/task_tree.h"
#include "common/rng.h"
#include "geo/grid.h"
#include "meta/learning_task.h"
#include "meta/meta_training.h"
#include "nn/batched_seq2seq.h"
#include "nn/encoder_decoder.h"
#include "similarity/kernel.h"

namespace tamp::meta {

/// The similarity factors GTMC can cluster by (Table IV's ablation axes).
/// The order of the configured list is the paper's F^s ordering
/// [Sim_d, Sim_s, Sim_l] by default.
enum class Factor {
  kDistribution,  // Sim_d: Wasserstein distance of location clouds (Eq. 3).
  kSpatial,       // Sim_s: kernel-density POI similarity (Eq. 1).
  kLearningPath,  // Sim_l: k-step gradient cosine similarity (Eq. 2).
};

/// The compared mobility-prediction algorithms (Section IV-A).
enum class MetaAlgorithm {
  kMaml,      // No clustering: one cluster holds every learning task.
  kCtml,      // Soft k-means on [data features ++ learning path] [41].
  kGttamlGt,  // Multi-level k-medoids clustering (no game) + TAML.
  kGttaml,    // GTMC game clustering + TAML (the paper's method).
};

/// Everything the prediction-side pipeline needs.
struct TrainerConfig {
  nn::Seq2SeqConfig model;
  MetaTrainConfig meta;
  cluster::TaskTreeConfig tree;
  /// Ordered clustering factors, F^s. Must be non-empty for the clustered
  /// algorithms.
  std::vector<Factor> factors = {Factor::kDistribution, Factor::kSpatial,
                                 Factor::kLearningPath};
  /// Per-worker fine-tuning after meta-initialization.
  int fine_tune_steps = 15;
  double fine_tune_lr = 0.01;
  /// Learning-path probe: steps and projection dimensionality.
  int path_steps = 3;
  int projection_dim = 32;
  /// Sim_d estimator settings.
  int sliced_projections = 8;
  double sim_d_scale_km = 2.0;
  /// Sim_s kernel.
  similarity::SpatialKernelParams kernel;
  /// CTML soft k-means stiffness and cluster count.
  double ctml_beta = 1.0;
  int ctml_k = 4;
  uint64_t seed = 1;
};

/// Per-worker prediction quality on held-out data.
struct PredictionMetrics {
  double rmse_km = 0.0;
  double mae_km = 0.0;
  double matching_rate = 0.0;  // Def. 7 with the configured threshold a.
  int num_points = 0;          // Evaluated (sample, step) predictions.
};

/// Output of training: per-worker model parameters plus diagnostics.
struct TrainedModels {
  nn::Seq2SeqConfig model_config;
  /// Parameters per learning task (index-aligned with the input task list).
  std::vector<std::vector<double>> worker_params;
  /// The learning task tree (single-node for MAML, one level for CTML).
  std::unique_ptr<cluster::TaskTreeNode> tree;
  double train_seconds = 0.0;  // The TT metric.
  double avg_query_loss = 0.0;
  int num_leaves = 0;
};

/// Aggregate + per-worker evaluation result.
struct EvalResult {
  PredictionMetrics aggregate;
  std::vector<PredictionMetrics> per_worker;
};

/// End-to-end prediction-side pipeline: builds the similarity factors,
/// clusters the learning tasks (per the chosen algorithm), meta-trains with
/// TAML, and fine-tunes one parameter vector per worker.
class MobilityTrainer {
 public:
  explicit MobilityTrainer(const TrainerConfig& config);

  const TrainerConfig& config() const { return config_; }
  const nn::EncoderDecoder& model() const { return model_; }

  /// Trains per-worker mobility models with the given algorithm.
  TrainedModels Train(const std::vector<LearningTask>& tasks,
                      MetaAlgorithm algorithm);

  /// Evaluates trained models on every task's held-out `eval` samples.
  /// `match_radius_km` is the matching-rate threshold a (Def. 7).
  ///
  /// Each worker's samples share one parameter vector, so every run of
  /// equal-length eval windows (EqualLengthRunEnd) is one batch through the
  /// SoA forecast engine (nn::BatchedSeq2Seq): every encoder/decoder step
  /// is a true GEMM across the samples, bitwise equal to the per-sample
  /// scalar Predict (nn_batched_forecast_test checks Evaluate against a
  /// per-sample scalar oracle).
  EvalResult Evaluate(const TrainedModels& models,
                      const std::vector<LearningTask>& tasks,
                      const geo::GridSpec& grid,
                      double match_radius_km) const;

  /// Onboards a newcomer (Section III-B, end): finds the most similar tree
  /// node, initializes from its theta, and fine-tunes on the newcomer's
  /// (few) support samples. `existing_tasks` must be the list Train saw.
  std::vector<double> AdaptNewcomer(const TrainedModels& models,
                                    const std::vector<LearningTask>& existing_tasks,
                                    const LearningTask& newcomer);

 private:
  /// Builds the cached pairwise similarity for one factor.
  similarity::PairwiseSimilarity BuildFactor(
      Factor factor, const std::vector<LearningTask>& tasks,
      const std::vector<similarity::GradientPath>& paths) const;

  /// Gradient paths for every task from a shared probe initialization.
  std::vector<similarity::GradientPath> ComputePaths(
      const std::vector<LearningTask>& tasks) const;

  TrainerConfig config_;
  nn::EncoderDecoder model_;
  /// Shares model_'s parameter layout; used by the batched Evaluate path.
  nn::BatchedSeq2Seq batched_model_;
};

}  // namespace tamp::meta
