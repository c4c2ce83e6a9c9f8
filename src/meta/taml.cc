#include "meta/taml.h"

#include "common/check.h"
#include "nn/optimizer.h"

namespace tamp::meta {

namespace {

/// Alg. 2 lines 3-6 over the trained leaves, post-order: each interior node
/// averages its children's losses and meta-gradients and takes one meta
/// step. `leaf_results` holds the leaves' MetaTrain results in depth-first
/// order; `next_leaf` walks it.
TamlResult AggregateSubtree(cluster::TaskTreeNode& node,
                            std::vector<MetaTrainResult>& leaf_results,
                            size_t& next_leaf, size_t param_count,
                            const MetaTrainConfig& config) {
  TAMP_CHECK(node.theta.size() == param_count);
  TamlResult result;
  if (node.is_leaf()) {
    MetaTrainResult& trained = leaf_results[next_leaf++];
    result.avg_loss = trained.avg_query_loss;
    result.gradient = std::move(trained.meta_gradient);
    return result;
  }
  result.gradient.assign(param_count, 0.0);
  for (auto& child : node.children) {
    TamlResult child_result =
        AggregateSubtree(*child, leaf_results, next_leaf, param_count, config);
    result.avg_loss += child_result.avg_loss;
    for (size_t i = 0; i < result.gradient.size(); ++i) {
      result.gradient[i] += child_result.gradient[i];
    }
  }
  double inv = 1.0 / static_cast<double>(node.children.size());
  result.avg_loss *= inv;
  for (double& g : result.gradient) g *= inv;
  // Alg. 2 line 6: update this node's theta with the average gradient.
  nn::ClipGradientNorm(result.gradient, config.grad_clip);
  for (size_t i = 0; i < node.theta.size(); ++i) {
    node.theta[i] -= config.alpha * result.gradient[i];
  }
  return result;
}

}  // namespace

TamlResult Taml(cluster::TaskTreeNode& node,
                const std::vector<LearningTask>& tasks,
                const nn::EncoderDecoder& model, const MetaTrainConfig& config,
                Rng& rng) {
  // Alg. 2 lines 1-2: every leaf runs Meta-Training on its own cluster.
  // The leaves are independent, so they train in lockstep, in depth-first
  // order (the order the recursion would visit them).
  std::vector<cluster::TaskTreeNode*> leaves = cluster::CollectLeaves(node);
  std::vector<MetaTrainCluster> clusters;
  clusters.reserve(leaves.size());
  for (cluster::TaskTreeNode* leaf : leaves) {
    clusters.push_back({&leaf->tasks, &leaf->theta});
  }
  std::vector<MetaTrainResult> leaf_results =
      MetaTrainClusters(model, tasks, clusters, config, rng);
  size_t next_leaf = 0;
  return AggregateSubtree(node, leaf_results, next_leaf, model.param_count(),
                          config);
}

void InitializeTreeParams(cluster::TaskTreeNode& root,
                          const std::vector<double>& theta) {
  root.theta = theta;
  for (auto& child : root.children) InitializeTreeParams(*child, theta);
}

const cluster::TaskTreeNode* FindLeafForTask(const cluster::TaskTreeNode& root,
                                             int task_id) {
  if (root.is_leaf()) {
    for (int t : root.tasks) {
      if (t == task_id) return &root;
    }
    return nullptr;
  }
  for (const auto& child : root.children) {
    const cluster::TaskTreeNode* found = FindLeafForTask(*child, task_id);
    if (found != nullptr) return found;
  }
  return nullptr;
}

namespace {

void SearchMostSimilar(const cluster::TaskTreeNode& node,
                       const std::function<double(int)>& similarity_to,
                       const cluster::TaskTreeNode** best,
                       double* best_score) {
  // Depth-first post-order: children first, then the node itself.
  for (const auto& child : node.children) {
    SearchMostSimilar(*child, similarity_to, best, best_score);
  }
  if (node.tasks.empty()) return;
  double sum = 0.0;
  for (int t : node.tasks) sum += similarity_to(t);
  double avg = sum / static_cast<double>(node.tasks.size());
  if (avg > *best_score) {
    *best_score = avg;
    *best = &node;
  }
}

}  // namespace

const cluster::TaskTreeNode* FindMostSimilarNode(
    const cluster::TaskTreeNode& root,
    const std::function<double(int)>& similarity_to) {
  const cluster::TaskTreeNode* best = &root;
  double best_score = -1.0;
  SearchMostSimilar(root, similarity_to, &best, &best_score);
  return best;
}

}  // namespace tamp::meta
