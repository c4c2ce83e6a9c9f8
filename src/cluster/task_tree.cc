#include "cluster/task_tree.h"

#include <algorithm>
#include <deque>
#include <numeric>

#include "common/check.h"

namespace tamp::cluster {

std::unique_ptr<TaskTreeNode> BuildLearningTaskTree(
    const std::vector<const similarity::PairwiseSimilarity*>& factors,
    const TaskTreeConfig& config, Rng& rng) {
  TAMP_CHECK(!factors.empty());
  const int n = factors[0]->size();
  TAMP_CHECK(n > 0);
  for (const auto* f : factors) TAMP_CHECK(f->size() == n);

  // Pre-fill every factor's similarity triangle with the parallel
  // materialize pass: the O(n^2) independent kernel evaluations dominate
  // the build, and afterwards the clustering game below only ever performs
  // data-race-free reads.
  for (const auto* f : factors) f->Materialize();

  auto root = std::make_unique<TaskTreeNode>();
  root->tasks.resize(static_cast<size_t>(n));
  std::iota(root->tasks.begin(), root->tasks.end(), 0);

  // Alg. 1 lines 2-18: queue of (node, factor index j).
  std::deque<std::pair<TaskTreeNode*, size_t>> queue;
  queue.emplace_back(root.get(), 0);
  while (!queue.empty()) {
    auto [node, j] = queue.front();
    queue.pop_front();
    const similarity::PairwiseSimilarity& sim = *factors[j];

    GameClusteringResult level =
        config.use_game
            ? GameTheoreticCluster(sim, node->tasks, config.game, rng)
            : KMedoidsCluster(sim, node->tasks, config.game, rng);

    // Alg. 1 line 13: only split when more than one sub-cluster remains.
    if (level.clusters.size() <= 1) continue;
    for (auto& sub : level.clusters) {
      auto child = std::make_unique<TaskTreeNode>();
      child->tasks = std::move(sub);
      child->parent = node;
      child->theta = node->theta;  // Alg. 1 line 15: inherit parent init.
      child->depth = node->depth + 1;
      child->factor_index = static_cast<int>(j);
      // Alg. 1 lines 17-18: refine with the next factor while quality is
      // below this level's threshold.
      if (j + 1 < factors.size()) {
        double threshold =
            j < config.thresholds.size() ? config.thresholds[j] : 1.0;
        double quality =
            similarity::ClusterQuality(sim, child->tasks, config.game.gamma);
        if (quality < threshold && child->tasks.size() > 1) {
          queue.emplace_back(child.get(), j + 1);
        }
      }
      node->children.push_back(std::move(child));
    }
  }
  return root;
}

int CountNodes(const TaskTreeNode& root) {
  int count = 1;
  for (const auto& child : root.children) count += CountNodes(*child);
  return count;
}

int CountLeaves(const TaskTreeNode& root) {
  if (root.is_leaf()) return 1;
  int count = 0;
  for (const auto& child : root.children) count += CountLeaves(*child);
  return count;
}

namespace {

template <typename Node, typename Out>
void CollectLeavesImpl(Node& node, Out& out) {
  if (node.is_leaf()) {
    out.push_back(&node);
    return;
  }
  for (auto& child : node.children) CollectLeavesImpl(*child, out);
}

}  // namespace

std::vector<const TaskTreeNode*> CollectLeaves(const TaskTreeNode& root) {
  std::vector<const TaskTreeNode*> out;
  CollectLeavesImpl(root, out);
  return out;
}

std::vector<TaskTreeNode*> CollectLeaves(TaskTreeNode& root) {
  std::vector<TaskTreeNode*> out;
  CollectLeavesImpl(root, out);
  return out;
}

bool ValidateTree(const TaskTreeNode& root) {
  if (root.is_leaf()) return !root.tasks.empty();
  std::vector<int> combined;
  for (const auto& child : root.children) {
    if (child->parent != &root) return false;
    if (child->depth != root.depth + 1) return false;
    if (!ValidateTree(*child)) return false;
    combined.insert(combined.end(), child->tasks.begin(), child->tasks.end());
  }
  std::vector<int> expected = root.tasks;
  std::sort(expected.begin(), expected.end());
  std::sort(combined.begin(), combined.end());
  return expected == combined;
}

}  // namespace tamp::cluster
