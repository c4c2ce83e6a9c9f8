#pragma once

#include <functional>
#include <vector>

#include "cluster/task_tree.h"
#include "common/rng.h"
#include "meta/learning_task.h"
#include "meta/meta_training.h"
#include "nn/encoder_decoder.h"

namespace tamp::meta {

/// Result of a (sub)tree TAML pass.
struct TamlResult {
  double avg_loss = 0.0;
  /// Mean first-order meta-gradient of the subtree, propagated upward for
  /// the non-leaf update (Alg. 2 line 6).
  std::vector<double> gradient;
};

/// Task Adaptive Meta-learning (Algorithm 2) over the learning task tree.
/// Leaves run Meta-Training (Algorithm 3) on their cluster; they are
/// independent, so all leaves train together in one MetaTrainClusters call
/// (depth-first leaf order, so the rng draws match training them one after
/// another). Then every interior node, post-order, averages its children's
/// losses and meta-gradients and applies one meta step of rate
/// `config.alpha` to its own theta. Every node's theta must already be
/// sized to model.param_count() (see InitializeTreeParams).
TamlResult Taml(cluster::TaskTreeNode& node,
                const std::vector<LearningTask>& tasks,
                const nn::EncoderDecoder& model, const MetaTrainConfig& config,
                Rng& rng);

/// Seeds every node's theta with the same freshly initialized parameter
/// vector (the shared starting point Alg. 1 line 15 propagates).
void InitializeTreeParams(cluster::TaskTreeNode& root,
                          const std::vector<double>& theta);

/// The leaf whose cluster contains `task_id`, or nullptr. Workers present
/// during training take their leaf's meta-trained theta as initialization.
const cluster::TaskTreeNode* FindLeafForTask(const cluster::TaskTreeNode& root,
                                             int task_id);

/// Newcomer adaptation (Section III-B, end): depth-first post-order search
/// for the tree node whose member tasks are on average most similar to the
/// newcomer, where `similarity_to(task_id)` scores the newcomer against an
/// existing learning task. The newcomer's model is then initialized from
/// that node's theta. Returns the best node (never null for a valid tree).
const cluster::TaskTreeNode* FindMostSimilarNode(
    const cluster::TaskTreeNode& root,
    const std::function<double(int)>& similarity_to);

}  // namespace tamp::meta
