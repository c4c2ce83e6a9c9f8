#include "meta/trainer.h"

#include <algorithm>
#include <cmath>

#include <optional>

#include "cluster/kmeans.h"
#include "common/check.h"
#include "common/obs/metrics.h"
#include "common/obs/trace.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "meta/taml.h"
#include "similarity/learning_path.h"
#include "similarity/wasserstein.h"

namespace tamp::meta {

MobilityTrainer::MobilityTrainer(const TrainerConfig& config)
    : config_(config), model_(config.model) {
  TAMP_CHECK(!config.factors.empty());
}

std::vector<similarity::GradientPath> MobilityTrainer::ComputePaths(
    const std::vector<LearningTask>& tasks) const {
  obs::TraceSpan paths_span("meta.paths");
  Rng rng(config_.seed ^ 0xA5A5A5A5ULL);
  std::vector<double> probe = model_.InitParams(rng);
  similarity::RandomProjector projector(
      model_.param_count(), static_cast<size_t>(config_.projection_dim),
      config_.seed ^ 0x5A5A5A5AULL);
  // Each task's probe path only reads the shared probe/projector, so the
  // per-task loop fans out; results land at their task index.
  return ParallelMap<similarity::GradientPath>(
      tasks.size(), [&](size_t t) {
        return ComputeGradientPath(model_, tasks[t], probe,
                                   config_.path_steps, config_.meta.beta,
                                   projector);
      });
}

similarity::PairwiseSimilarity MobilityTrainer::BuildFactor(
    Factor factor, const std::vector<LearningTask>& tasks,
    const std::vector<similarity::GradientPath>& paths) const {
  int n = static_cast<int>(tasks.size());
  switch (factor) {
    case Factor::kDistribution:
      return similarity::PairwiseSimilarity(n, [this, &tasks](int i, int j) {
        return similarity::DistributionSimilarity(
            tasks[static_cast<size_t>(i)].location_cloud,
            tasks[static_cast<size_t>(j)].location_cloud,
            config_.sliced_projections, config_.sim_d_scale_km);
      });
    case Factor::kSpatial:
      return similarity::PairwiseSimilarity(n, [this, &tasks](int i, int j) {
        return similarity::SpatialSimilarity(tasks[static_cast<size_t>(i)].pois,
                                             tasks[static_cast<size_t>(j)].pois,
                                             config_.kernel);
      });
    case Factor::kLearningPath:
      return similarity::PairwiseSimilarity(n, [&paths](int i, int j) {
        return similarity::LearningPathSimilarity(paths[static_cast<size_t>(i)],
                                                  paths[static_cast<size_t>(j)]);
      });
  }
  TAMP_CHECK_MSG(false, "unknown factor");
  return similarity::PairwiseSimilarity(0, nullptr);
}

namespace {

/// CTML's task embedding [41]: summary statistics of the input data
/// distribution concatenated with the flattened learning path.
std::vector<double> CtmlFeatures(const LearningTask& task,
                                 const similarity::GradientPath& path) {
  double mx = 0.0, my = 0.0;
  for (const auto& p : task.location_cloud) {
    mx += p.x;
    my += p.y;
  }
  double n = std::max<double>(1.0, static_cast<double>(task.location_cloud.size()));
  mx /= n;
  my /= n;
  double sx = 0.0, sy = 0.0;
  for (const auto& p : task.location_cloud) {
    sx += (p.x - mx) * (p.x - mx);
    sy += (p.y - my) * (p.y - my);
  }
  std::vector<double> features = {mx, my, std::sqrt(sx / n),
                                  std::sqrt(sy / n)};
  for (const auto& step : path) {
    features.insert(features.end(), step.begin(), step.end());
  }
  return features;
}

std::unique_ptr<cluster::TaskTreeNode> SingleClusterTree(int n) {
  auto root = std::make_unique<cluster::TaskTreeNode>();
  root->tasks.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) root->tasks[static_cast<size_t>(i)] = i;
  return root;
}

}  // namespace

TrainedModels MobilityTrainer::Train(const std::vector<LearningTask>& tasks,
                                     MetaAlgorithm algorithm) {
  TAMP_CHECK(!tasks.empty());
  obs::TraceSpan train_span("meta.train_offline");
  Stopwatch watch;
  Rng rng(config_.seed);

  TrainedModels out;
  out.model_config = config_.model;

  const bool needs_paths =
      algorithm == MetaAlgorithm::kCtml ||
      ((algorithm == MetaAlgorithm::kGttaml ||
        algorithm == MetaAlgorithm::kGttamlGt) &&
       std::find(config_.factors.begin(), config_.factors.end(),
                 Factor::kLearningPath) != config_.factors.end());
  std::vector<similarity::GradientPath> paths;
  if (needs_paths) paths = ComputePaths(tasks);

  // Stage 1: build the learning task tree per the chosen algorithm.
  std::optional<obs::TraceSpan> tree_span(std::in_place, "meta.tree");
  switch (algorithm) {
    case MetaAlgorithm::kMaml:
      out.tree = SingleClusterTree(static_cast<int>(tasks.size()));
      break;
    case MetaAlgorithm::kCtml: {
      // One-level tree from soft k-means hard assignments.
      std::vector<std::vector<double>> features;
      features.reserve(tasks.size());
      for (size_t i = 0; i < tasks.size(); ++i) {
        features.push_back(CtmlFeatures(tasks[i], paths[i]));
      }
      cluster::SoftKMeansResult soft = cluster::SoftKMeans(
          features, config_.ctml_k, config_.ctml_beta, rng);
      out.tree = SingleClusterTree(static_cast<int>(tasks.size()));
      std::vector<std::vector<int>> groups(soft.centroids.size());
      for (size_t p = 0; p < tasks.size(); ++p) {
        const auto& resp = soft.responsibilities[p];
        int best = static_cast<int>(
            std::max_element(resp.begin(), resp.end()) - resp.begin());
        groups[static_cast<size_t>(best)].push_back(static_cast<int>(p));
      }
      for (auto& group : groups) {
        if (group.empty()) continue;
        auto child = std::make_unique<cluster::TaskTreeNode>();
        child->tasks = std::move(group);
        child->parent = out.tree.get();
        child->depth = 1;
        out.tree->children.push_back(std::move(child));
      }
      break;
    }
    case MetaAlgorithm::kGttamlGt:
    case MetaAlgorithm::kGttaml: {
      std::vector<similarity::PairwiseSimilarity> factor_sims;
      factor_sims.reserve(config_.factors.size());
      for (Factor f : config_.factors) {
        factor_sims.push_back(BuildFactor(f, tasks, paths));
      }
      std::vector<const similarity::PairwiseSimilarity*> factor_ptrs;
      for (const auto& f : factor_sims) factor_ptrs.push_back(&f);
      cluster::TaskTreeConfig tree_config = config_.tree;
      tree_config.use_game = algorithm == MetaAlgorithm::kGttaml;
      out.tree =
          cluster::BuildLearningTaskTree(factor_ptrs, tree_config, rng);
      break;
    }
  }

  tree_span.reset();

  // Stage 2: TAML over the tree (Alg. 2; plain MAML when the tree is a
  // single node).
  std::optional<obs::TraceSpan> taml_span(std::in_place, "meta.taml");
  std::vector<double> init = model_.InitParams(rng);
  InitializeTreeParams(*out.tree, init);
  TamlResult taml = Taml(*out.tree, tasks, model_, config_.meta, rng);
  out.avg_query_loss = taml.avg_loss;
  out.num_leaves = cluster::CountLeaves(*out.tree);
  taml_span.reset();

  // Stage 3: per-worker fine-tuning from the covering leaf's theta. The
  // tree is read-only here and each worker owns its params slot, so the
  // loop fans out per worker.
  obs::TraceSpan fine_tune_span("meta.fine_tune");
  out.worker_params.resize(tasks.size());
  ParallelFor(tasks.size(), [&](size_t i) {
    const cluster::TaskTreeNode* leaf =
        FindLeafForTask(*out.tree, static_cast<int>(i));
    TAMP_CHECK(leaf != nullptr);
    out.worker_params[i] = leaf->theta;
    FineTune(model_, tasks[i], out.worker_params[i], config_.fine_tune_steps,
             config_.fine_tune_lr, config_.meta);
  });

  out.train_seconds = watch.ElapsedSeconds();
  return out;
}

EvalResult MobilityTrainer::Evaluate(const TrainedModels& models,
                                     const std::vector<LearningTask>& tasks,
                                     const geo::GridSpec& grid,
                                     double match_radius_km) const {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& evals_counter = registry.GetCounter("eval.runs");
  static obs::Counter& points_counter = registry.GetCounter("eval.points");
  static obs::Gauge& matching_rate_gauge =
      registry.GetGauge("eval.matching_rate");

  obs::TraceSpan eval_span("eval.matching_rate");
  evals_counter.Increment();
  TAMP_CHECK(models.worker_params.size() == tasks.size());
  EvalResult result;
  result.per_worker.resize(tasks.size());

  // Per-worker matching-rate / error estimation is independent across
  // workers: fan out, keeping per-worker partial sums, then aggregate them
  // serially in worker order (bit-identical to the serial loop).
  struct WorkerSums {
    double se = 0.0, ae = 0.0;
    int matched = 0, points = 0;
  };
  std::vector<WorkerSums> sums(tasks.size());
  ParallelFor(tasks.size(), [&](size_t w) {
    const std::vector<TrainingSample>& eval = tasks[w].eval;
    // Per-pool-thread reusable forward buffers: outputs never depend on
    // scratch contents, so the fan-out stays bit-deterministic.
    thread_local nn::RolloutScratch batch_scratch;
    thread_local std::vector<const std::vector<double>*> row_params;
    thread_local std::vector<const nn::Sequence*> batch_inputs;
    thread_local std::vector<nn::Sequence> batch_preds;
    double worker_se = 0.0, worker_ae = 0.0;
    int worker_matched = 0, worker_points = 0;
    // All of this worker's samples share worker_params[w], so each run of
    // equal-length windows is one shared-parameter (GEMM) batch; the
    // distances then accumulate in sample order, run after run.
    for (size_t begin = 0; begin < eval.size();) {
      const size_t end = EqualLengthRunEnd(eval, begin);
      row_params.assign(end - begin, &models.worker_params[w]);
      batch_inputs.resize(end - begin);
      for (size_t i = begin; i < end; ++i) {
        batch_inputs[i - begin] = &eval[i].input;
      }
      model_.PredictBatch(row_params, batch_inputs, &batch_preds,
                          batch_scratch);
      for (size_t i = begin; i < end; ++i) {
        const TrainingSample& sample = eval[i];
        const nn::Sequence& pred = batch_preds[i - begin];
        for (size_t t = 0; t < pred.size(); ++t) {
          geo::Point pred_km = grid.Denormalize({pred[t][0], pred[t][1]});
          geo::Point true_km =
              grid.Denormalize({sample.target[t][0], sample.target[t][1]});
          // A NaN distance (a corrupt model) must abort here rather than
          // silently count as unmatched (Def. 7) and skew the PPI
          // objective.
          double d = TAMP_CHECK_FINITE(geo::Distance(pred_km, true_km));
          worker_se += d * d;
          worker_ae += d;
          if (d <= match_radius_km) ++worker_matched;
          ++worker_points;
        }
      }
      begin = end;
    }
    PredictionMetrics& pm = result.per_worker[w];
    pm.num_points = worker_points;
    if (worker_points > 0) {
      pm.rmse_km = std::sqrt(worker_se / worker_points);
      pm.mae_km = worker_ae / worker_points;
      pm.matching_rate =
          static_cast<double>(worker_matched) / worker_points;
    }
    sums[w] = {worker_se, worker_ae, worker_matched, worker_points};
  });

  double se_sum = 0.0, ae_sum = 0.0;
  int matched_total = 0, points_total = 0;
  for (const WorkerSums& s : sums) {
    se_sum += s.se;
    ae_sum += s.ae;
    matched_total += s.matched;
    points_total += s.points;
  }

  result.aggregate.num_points = points_total;
  if (points_total > 0) {
    result.aggregate.rmse_km = std::sqrt(se_sum / points_total);
    result.aggregate.mae_km = ae_sum / points_total;
    result.aggregate.matching_rate =
        static_cast<double>(matched_total) / points_total;
  }
  points_counter.Increment(points_total);
  matching_rate_gauge.Set(result.aggregate.matching_rate);
  return result;
}

std::vector<double> MobilityTrainer::AdaptNewcomer(
    const TrainedModels& models,
    const std::vector<LearningTask>& existing_tasks,
    const LearningTask& newcomer) {
  TAMP_CHECK(models.tree != nullptr);
  // Score the newcomer against existing tasks with the distribution factor
  // (the most direct representation; Sim_s/Sim_l need data the newcomer
  // may not have yet).
  auto similarity_to = [&](int task_id) {
    return similarity::DistributionSimilarity(
        newcomer.location_cloud,
        existing_tasks[static_cast<size_t>(task_id)].location_cloud,
        config_.sliced_projections, config_.sim_d_scale_km);
  };
  const cluster::TaskTreeNode* best =
      FindMostSimilarNode(*models.tree, similarity_to);
  std::vector<double> theta = best->theta;
  FineTune(model_, newcomer, theta, config_.fine_tune_steps,
           config_.fine_tune_lr, config_.meta);
  return theta;
}

}  // namespace tamp::meta
