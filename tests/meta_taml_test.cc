#include "meta/taml.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/obs/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "nn/encoder_decoder.h"
#include "nn/optimizer.h"

namespace tamp::meta {
namespace {

LearningTask MakeTask(int id, double vx, tamp::Rng& rng) {
  LearningTask task;
  task.worker_id = id;
  auto sample = [&]() {
    TrainingSample s;
    double x = rng.Uniform(0.2, 0.6), y = rng.Uniform(0.2, 0.6);
    for (int t = 0; t < 3; ++t) s.input.push_back({x + vx * t, y});
    s.target.push_back({x + vx * 3, y});
    s.target_km.push_back({(x + vx * 3) * 10.0, y * 10.0});
    return s;
  };
  for (int i = 0; i < 6; ++i) task.support.push_back(sample());
  for (int i = 0; i < 4; ++i) task.query.push_back(sample());
  for (const auto& s : task.support) {
    task.location_cloud.push_back(s.target_km[0]);
  }
  return task;
}

nn::EncoderDecoder SmallModel() {
  nn::Seq2SeqConfig config;
  config.hidden_dim = 6;
  return nn::EncoderDecoder(config);
}

/// Builds a two-leaf tree: leaf A = tasks {0,1}, leaf B = tasks {2,3}.
std::unique_ptr<cluster::TaskTreeNode> TwoLeafTree() {
  auto root = std::make_unique<cluster::TaskTreeNode>();
  root->tasks = {0, 1, 2, 3};
  for (int half = 0; half < 2; ++half) {
    auto leaf = std::make_unique<cluster::TaskTreeNode>();
    leaf->tasks = half == 0 ? std::vector<int>{0, 1} : std::vector<int>{2, 3};
    leaf->parent = root.get();
    leaf->depth = 1;
    root->children.push_back(std::move(leaf));
  }
  return root;
}

TEST(InitializeTreeParamsTest, PropagatesToAllNodes) {
  auto root = TwoLeafTree();
  std::vector<double> theta = {1.0, 2.0, 3.0};
  InitializeTreeParams(*root, theta);
  EXPECT_EQ(root->theta, theta);
  for (const auto& child : root->children) EXPECT_EQ(child->theta, theta);
}

TEST(TamlTest, TrainsLeavesAndUpdatesInteriorNodes) {
  tamp::Rng rng(3);
  nn::EncoderDecoder model = SmallModel();
  std::vector<LearningTask> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back(MakeTask(i, i < 2 ? 0.04 : -0.04, rng));
  }
  auto root = TwoLeafTree();
  std::vector<double> init = model.InitParams(rng);
  InitializeTreeParams(*root, init);

  MetaTrainConfig config;
  config.iterations = 10;
  config.batch_size = 2;
  TamlResult result = Taml(*root, tasks, model, config, rng);

  EXPECT_GT(result.avg_loss, 0.0);
  EXPECT_EQ(result.gradient.size(), model.param_count());
  // Leaves must have moved away from the shared initialization...
  for (const auto& child : root->children) {
    EXPECT_NE(child->theta, init);
  }
  // ...and in different directions (their data differs).
  EXPECT_NE(root->children[0]->theta, root->children[1]->theta);
  // The interior node also takes a (single) meta step.
  EXPECT_NE(root->theta, init);
}

TEST(TamlTest, SingleNodeTreeEqualsMetaTraining) {
  tamp::Rng rng(5);
  nn::EncoderDecoder model = SmallModel();
  std::vector<LearningTask> tasks = {MakeTask(0, 0.03, rng),
                                     MakeTask(1, 0.03, rng)};
  auto root = std::make_unique<cluster::TaskTreeNode>();
  root->tasks = {0, 1};
  InitializeTreeParams(*root, model.InitParams(rng));
  MetaTrainConfig config;
  config.iterations = 5;
  TamlResult result = Taml(*root, tasks, model, config, rng);
  EXPECT_GT(result.avg_loss, 0.0);
}

// ---------------------------------------------------------------------------
// The oracle: Algorithm 2 as a plain recursion over the tree.
// ---------------------------------------------------------------------------

/// Algorithm 2 written out as the paper describes it: each leaf runs
/// Meta-Training on its own cluster, one leaf after another in depth-first
/// order, drawing from the shared rng; each interior node then averages
/// its children's losses and meta-gradients and takes one meta step. It
/// shares only the one-cluster MetaTrain with Taml: each call trains a
/// single leaf, so nothing is pre-drawn across leaves and no fan-out spans
/// two leaves. Each leaf's avg_query_loss is appended to `leaf_losses` in
/// the order the leaves train.
TamlResult RecursiveTaml(cluster::TaskTreeNode& node,
                         const std::vector<LearningTask>& tasks,
                         const nn::EncoderDecoder& model,
                         const MetaTrainConfig& config, tamp::Rng& rng,
                         std::vector<double>& leaf_losses) {
  TamlResult result;
  if (node.is_leaf()) {
    MetaTrainResult trained =
        MetaTrain(model, tasks, node.tasks, node.theta, config, rng);
    leaf_losses.push_back(trained.avg_query_loss);
    result.avg_loss = trained.avg_query_loss;
    result.gradient = std::move(trained.meta_gradient);
    return result;
  }
  result.gradient.assign(model.param_count(), 0.0);
  for (auto& child : node.children) {
    TamlResult child_result =
        RecursiveTaml(*child, tasks, model, config, rng, leaf_losses);
    result.avg_loss += child_result.avg_loss;
    for (size_t i = 0; i < result.gradient.size(); ++i) {
      result.gradient[i] += child_result.gradient[i];
    }
  }
  double inv = 1.0 / static_cast<double>(node.children.size());
  result.avg_loss *= inv;
  for (double& g : result.gradient) g *= inv;
  nn::ClipGradientNorm(result.gradient, config.grad_clip);
  for (size_t i = 0; i < node.theta.size(); ++i) {
    node.theta[i] -= config.alpha * result.gradient[i];
  }
  return result;
}

std::unique_ptr<cluster::TaskTreeNode> AddChild(cluster::TaskTreeNode& parent,
                                                std::vector<int> tasks) {
  auto child = std::make_unique<cluster::TaskTreeNode>();
  child->tasks = std::move(tasks);
  child->parent = &parent;
  child->depth = parent.depth + 1;
  return child;
}

/// A three-level tree with uneven leaves (depth-first leaf order):
///   root {0..10}
///   +- A {0..5}: leaf {0} (1 member), leaf {1..5} (5 members)
///   +- leaf {6, 7} (2 members)
///   +- B {8, 9, 10}: leaf {10}, leaf {8, 9}
/// Task 3 has no query set, so some of its leaf's picks do not contribute;
/// tasks 8 and 9 have no support and no query set respectively, so the
/// last leaf never has a contributing iteration.
std::unique_ptr<cluster::TaskTreeNode> UnevenTree() {
  auto root = std::make_unique<cluster::TaskTreeNode>();
  root->tasks = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto a = AddChild(*root, {0, 1, 2, 3, 4, 5});
  a->children.push_back(AddChild(*a, {0}));
  a->children.push_back(AddChild(*a, {1, 2, 3, 4, 5}));
  auto b = AddChild(*root, {8, 9, 10});
  b->children.push_back(AddChild(*b, {10}));
  b->children.push_back(AddChild(*b, {8, 9}));
  root->children.push_back(std::move(a));
  root->children.push_back(AddChild(*root, {6, 7}));
  root->children.push_back(std::move(b));
  EXPECT_TRUE(cluster::ValidateTree(*root));
  return root;
}

std::vector<LearningTask> UnevenTasks() {
  tamp::Rng rng(17);
  std::vector<LearningTask> tasks;
  for (int i = 0; i <= 10; ++i) {
    tasks.push_back(MakeTask(i, 0.01 * (i % 4) - 0.015, rng));
  }
  tasks[3].query.clear();
  tasks[8].support.clear();
  tasks[9].query.clear();
  return tasks;
}

/// Every node's theta, in depth-first pre-order.
void CollectThetas(const cluster::TaskTreeNode& node,
                   std::vector<std::vector<double>>& out) {
  out.push_back(node.theta);
  for (const auto& child : node.children) CollectThetas(*child, out);
}

/// What one TAML pass leaves behind, for a bitwise comparison.
struct TamlOutcome {
  TamlResult result;
  std::vector<double> init;                 // Every node's starting theta.
  std::vector<std::vector<double>> thetas;  // Pre-order, after the pass.
  std::vector<double> leaf_losses;          // Oracle runs only.
  int64_t iterations = 0;                   // meta.iterations delta.
  int64_t adapt_steps = 0;                  // meta.adapt_steps delta.
  double final_gauge = 0.0;                 // meta.avg_query_loss after.
};

/// One TAML pass over UnevenTree: the lockstep Taml or the oracle.
TamlOutcome RunTaml(bool lockstep, MetaUpdateRule rule) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& iterations = registry.GetCounter("meta.iterations");
  obs::Counter& adapt_steps = registry.GetCounter("meta.adapt_steps");
  obs::Gauge& gauge = registry.GetGauge("meta.avg_query_loss");
  std::vector<LearningTask> tasks = UnevenTasks();
  nn::EncoderDecoder model = SmallModel();
  auto root = UnevenTree();
  tamp::Rng rng(29);
  TamlOutcome out;
  out.init = model.InitParams(rng);
  InitializeTreeParams(*root, out.init);
  MetaTrainConfig config;
  config.iterations = 6;
  config.batch_size = 4;
  config.adapt_steps = 2;
  config.update_rule = rule;
  config.weight_fn = [](const geo::Point& p) { return 1.0 + 0.05 * p.y; };

  gauge.Set(-1.0);  // A sentinel no real loss takes.
  int64_t iterations_before = iterations.value();
  int64_t adapt_steps_before = adapt_steps.value();
  out.result =
      lockstep ? Taml(*root, tasks, model, config, rng)
               : RecursiveTaml(*root, tasks, model, config, rng,
                               out.leaf_losses);
  out.iterations = iterations.value() - iterations_before;
  out.adapt_steps = adapt_steps.value() - adapt_steps_before;
  out.final_gauge = gauge.value();
  CollectThetas(*root, out.thetas);
  return out;
}

TEST(TamlTest, LockstepLeavesMatchRecursiveOracleBitwise) {
  for (MetaUpdateRule rule :
       {MetaUpdateRule::kFomaml, MetaUpdateRule::kReptile}) {
    SetParallelThreadCount(1);
    TamlOutcome oracle = RunTaml(/*lockstep=*/false, rule);
    // Pin the fixture: 5 leaves x 6 iterations of 1 + 4 + 2 + 1 + 2
    // picks; besides leaf {8, 9}'s 12 picks, task 3's are skipped too;
    // leaf {8, 9} (pre-order node 7) never steps, so the gauge ends on the
    // leaf before it ({10}).
    EXPECT_EQ(oracle.iterations, 30);
    EXPECT_LT(oracle.adapt_steps, (60 - 12) * 2);
    ASSERT_EQ(oracle.leaf_losses.size(), 5u);
    EXPECT_EQ(oracle.leaf_losses[4], 0.0);
    EXPECT_EQ(oracle.thetas[7], oracle.init);
    EXPECT_GT(oracle.leaf_losses[3], 0.0);
    EXPECT_EQ(oracle.final_gauge, oracle.leaf_losses[3]);
    for (int threads : {1, 2, 4, 8}) {
      SetParallelThreadCount(threads);
      TamlOutcome lockstep = RunTaml(/*lockstep=*/true, rule);
      SCOPED_TRACE("rule " + std::to_string(static_cast<int>(rule)) +
                   ", threads " + std::to_string(threads));
      EXPECT_EQ(lockstep.thetas, oracle.thetas);
      EXPECT_EQ(lockstep.result.avg_loss, oracle.result.avg_loss);
      EXPECT_EQ(lockstep.result.gradient, oracle.result.gradient);
      EXPECT_EQ(lockstep.iterations, oracle.iterations);
      EXPECT_EQ(lockstep.adapt_steps, oracle.adapt_steps);
      EXPECT_EQ(lockstep.final_gauge, oracle.final_gauge);
    }
    SetParallelThreadCount(0);
  }
}

TEST(FindLeafForTaskTest, FindsCoveringLeaf) {
  auto root = TwoLeafTree();
  const cluster::TaskTreeNode* leaf0 = FindLeafForTask(*root, 1);
  ASSERT_NE(leaf0, nullptr);
  EXPECT_EQ(leaf0, root->children[0].get());
  const cluster::TaskTreeNode* leaf1 = FindLeafForTask(*root, 3);
  EXPECT_EQ(leaf1, root->children[1].get());
  EXPECT_EQ(FindLeafForTask(*root, 99), nullptr);
}

TEST(FindMostSimilarNodeTest, PicksTheMatchingCluster) {
  auto root = TwoLeafTree();
  // The newcomer resembles tasks 2 and 3.
  auto similarity_to = [](int task_id) {
    return task_id >= 2 ? 0.9 : 0.1;
  };
  const cluster::TaskTreeNode* best = FindMostSimilarNode(*root, similarity_to);
  EXPECT_EQ(best, root->children[1].get());
}

TEST(FindMostSimilarNodeTest, RootWinsWhenSimilarityIsBalanced) {
  auto root = TwoLeafTree();
  // Equal similarity everywhere: every node scores the same; post-order
  // visits children first, so a strictly-greater root never replaces them,
  // and the result is one of the equally good nodes.
  const cluster::TaskTreeNode* best =
      FindMostSimilarNode(*root, [](int) { return 0.5; });
  ASSERT_NE(best, nullptr);
}

TEST(FindMostSimilarNodeTest, SingleNodeTreeReturnsRoot) {
  cluster::TaskTreeNode root;
  root.tasks = {0};
  const cluster::TaskTreeNode* best =
      FindMostSimilarNode(root, [](int) { return 0.3; });
  EXPECT_EQ(best, &root);
}

}  // namespace
}  // namespace tamp::meta
