#include "assign/sharding.h"

#include <algorithm>
#include <cstdint>

#include "common/check.h"
#include "common/obs/metrics.h"
#include "common/obs/trace.h"
#include "common/parallel.h"

namespace tamp::assign {
namespace {

/// Union-find over task/worker nodes with path halving + union by size.
/// All traversal is by ascending index — never hash order — so the
/// resulting components and their numbering are deterministic.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n), size_(n, 1) {
    for (size_t i = 0; i < n; ++i) parent_[i] = static_cast<int>(i);
  }

  int Find(int x) {
    while (parent_[static_cast<size_t>(x)] != x) {
      parent_[static_cast<size_t>(x)] =
          parent_[static_cast<size_t>(parent_[static_cast<size_t>(x)])];
      x = parent_[static_cast<size_t>(x)];
    }
    return x;
  }

  void Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    if (size_[static_cast<size_t>(a)] < size_[static_cast<size_t>(b)]) {
      std::swap(a, b);
    }
    parent_[static_cast<size_t>(b)] = a;
    size_[static_cast<size_t>(a)] += size_[static_cast<size_t>(b)];
  }

 private:
  std::vector<int> parent_;
  std::vector<int> size_;
};

}  // namespace

ShardPlan BuildShardPlan(const std::vector<std::vector<TaskCandidate>>& table,
                         const std::vector<SpatialTask>& tasks,
                         const std::vector<CandidateWorker>& workers) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& count_counter =
      registry.GetCounter("assign.shard_count");
  static obs::Gauge& max_rows_gauge =
      registry.GetGauge("assign.shard_max_rows");

  TAMP_CHECK(table.size() == tasks.size());
  const int num_tasks = static_cast<int>(tasks.size());
  const int num_workers = static_cast<int>(workers.size());

  ShardPlan plan;
  plan.shard_of_task.assign(static_cast<size_t>(num_tasks), -1);
  plan.shard_of_worker.assign(static_cast<size_t>(num_workers), -1);

  // Nodes 0..T-1 are tasks, T..T+W-1 are workers. Every table row unions
  // its task with its worker; rows are visited in index order.
  UnionFind uf(static_cast<size_t>(num_tasks + num_workers));
  for (int t = 0; t < num_tasks; ++t) {
    for (const TaskCandidate& tc : table[static_cast<size_t>(t)]) {
      TAMP_DCHECK(tc.worker >= 0 && tc.worker < num_workers);
      uf.Union(t, num_tasks + tc.worker);
    }
  }

  // Number the components by first appearance over ascending task index;
  // tasks (and workers) with no rows stay unsharded (-1).
  std::vector<int> shard_of_root(static_cast<size_t>(num_tasks + num_workers),
                                 -1);
  for (int t = 0; t < num_tasks; ++t) {
    if (table[static_cast<size_t>(t)].empty()) continue;
    const int root = uf.Find(t);
    int& shard = shard_of_root[static_cast<size_t>(root)];
    if (shard < 0) {
      shard = static_cast<int>(plan.shards.size());
      plan.shards.emplace_back();
    }
    plan.shard_of_task[static_cast<size_t>(t)] = shard;
    plan.shards[static_cast<size_t>(shard)].tasks.push_back(t);
    const int64_t rows =
        static_cast<int64_t>(table[static_cast<size_t>(t)].size());
    plan.shards[static_cast<size_t>(shard)].rows += rows;
    plan.total_rows += rows;
  }
  for (int w = 0; w < num_workers; ++w) {
    const int shard = shard_of_root[static_cast<size_t>(uf.Find(num_tasks + w))];
    if (shard < 0) continue;  // No row references this worker.
    plan.shard_of_worker[static_cast<size_t>(w)] = shard;
    plan.shards[static_cast<size_t>(shard)].workers.push_back(w);
  }

  for (Shard& shard : plan.shards) {
    shard.cost = shard.rows * static_cast<int64_t>(shard.tasks.size() +
                                                   shard.workers.size());
    plan.max_rows = std::max(plan.max_rows, shard.rows);
  }

  // LPT order: most expensive shard first, so the pool's dynamic index
  // claiming balances thread load. stable_sort keeps equal-cost shards in
  // first-appearance order — the ordering is deterministic either way, but
  // stability makes it independent of the sort implementation.
  std::vector<size_t> order(plan.shards.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return plan.shards[a].cost > plan.shards[b].cost;
  });
  std::vector<int> new_of_old(plan.shards.size());
  std::vector<Shard> sorted;
  sorted.reserve(plan.shards.size());
  for (size_t rank = 0; rank < order.size(); ++rank) {
    new_of_old[order[rank]] = static_cast<int>(rank);
    sorted.push_back(std::move(plan.shards[order[rank]]));
  }
  plan.shards = std::move(sorted);
  for (int& s : plan.shard_of_task) {
    if (s >= 0) s = new_of_old[static_cast<size_t>(s)];
  }
  for (int& s : plan.shard_of_worker) {
    if (s >= 0) s = new_of_old[static_cast<size_t>(s)];
  }

  count_counter.Increment(static_cast<int64_t>(plan.shards.size()));
  max_rows_gauge.Set(static_cast<double>(plan.max_rows));
  return plan;
}

matching::MatchResult ShardedMaxWeightMatching(
    int num_left, int num_right, const std::vector<matching::Edge>& edges,
    const ShardPlan& plan) {
  TAMP_CHECK(num_left >= 0 && num_right >= 0);
  TAMP_CHECK(plan.shard_of_task.size() == static_cast<size_t>(num_left));
  TAMP_CHECK(plan.shard_of_worker.size() == static_cast<size_t>(num_right));
  matching::MatchResult result;
  if (edges.empty() || plan.shards.empty()) return result;

  // Which shards this call touches. PPI's stage-2 flushes carry a handful
  // of edges against a plan built for the whole table, so only shards
  // with a positive edge are solved; they keep the plan's LPT order.
  std::vector<int> edges_of_shard(plan.shards.size(), 0);
  for (const matching::Edge& e : edges) {
    TAMP_CHECK(e.left >= 0 && e.left < num_left);
    TAMP_CHECK(e.right >= 0 && e.right < num_right);
    if (e.weight <= 0.0) continue;  // The global matcher drops these too.
    const int s = plan.shard_of_task[static_cast<size_t>(e.left)];
    // A positive-weight edge is a candidate row, and every row was unioned
    // into exactly one component — so both endpoints share a shard.
    TAMP_CHECK_MSG(s >= 0 &&
                       s == plan.shard_of_worker[static_cast<size_t>(e.right)],
                   "edge crosses shard boundaries: plan/edges mismatch");
    ++edges_of_shard[static_cast<size_t>(s)];
  }
  std::vector<int> slot_of_shard(plan.shards.size(), -1);
  std::vector<int> active;  // Shard ids, ascending = LPT order.
  for (size_t s = 0; s < plan.shards.size(); ++s) {
    if (edges_of_shard[s] == 0) continue;
    slot_of_shard[s] = static_cast<int>(active.size());
    active.push_back(static_cast<int>(s));
  }
  if (active.empty()) return result;

  // Shard-local index of each member of an active shard (member lists are
  // ascending, so local order mirrors global order).
  std::vector<int> local_of_task(static_cast<size_t>(num_left));
  std::vector<int> local_of_worker(static_cast<size_t>(num_right));
  for (int s : active) {
    const Shard& shard = plan.shards[static_cast<size_t>(s)];
    for (size_t i = 0; i < shard.tasks.size(); ++i) {
      local_of_task[static_cast<size_t>(shard.tasks[i])] = static_cast<int>(i);
    }
    for (size_t i = 0; i < shard.workers.size(); ++i) {
      local_of_worker[static_cast<size_t>(shard.workers[i])] =
          static_cast<int>(i);
    }
  }

  // Partition the positive edges by shard, in input order, renumbered to
  // shard-local indices.
  std::vector<std::vector<matching::Edge>> shard_edges(active.size());
  for (size_t a = 0; a < active.size(); ++a) {
    shard_edges[a].reserve(static_cast<size_t>(
        edges_of_shard[static_cast<size_t>(active[a])]));
  }
  for (const matching::Edge& e : edges) {
    if (e.weight <= 0.0) continue;
    const int s = plan.shard_of_task[static_cast<size_t>(e.left)];
    shard_edges[static_cast<size_t>(slot_of_shard[static_cast<size_t>(s)])]
        .push_back({local_of_task[static_cast<size_t>(e.left)],
                    local_of_worker[static_cast<size_t>(e.right)], e.weight});
  }

  // Solve each active shard. Writes are slot-indexed (sub[a]), so the
  // result does not depend on the schedule; LPT order plus the pool's
  // dynamic index claiming starts the largest solves first.
  std::vector<matching::MatchResult> sub(active.size());
  {
    obs::TraceSpan solve_span("assign.shard_solve");
    ParallelFor(active.size(), [&](size_t a) {
      const Shard& shard = plan.shards[static_cast<size_t>(active[a])];
      thread_local matching::MatchingScratch scratch;
      sub[a] = matching::MaxWeightMatching(
          static_cast<int>(shard.tasks.size()),
          static_cast<int>(shard.workers.size()), shard_edges[a], &scratch);
    });
  }

  // Merge in global left-ascending order — the global solve's emission
  // order — and sum each matched pair's (duplicate-max) weight in that
  // order, so both the pair list and the total are bitwise-equal to the
  // unsharded MaxWeightMatching.
  for (size_t a = 0; a < active.size(); ++a) {
    const Shard& shard = plan.shards[static_cast<size_t>(active[a])];
    for (auto [l, r] : sub[a].pairs) {
      result.pairs.emplace_back(shard.tasks[static_cast<size_t>(l)],
                                shard.workers[static_cast<size_t>(r)]);
    }
  }
  std::sort(result.pairs.begin(), result.pairs.end());
  std::vector<int> right_of_left(static_cast<size_t>(num_left), -1);
  std::vector<double> weight_of_left(static_cast<size_t>(num_left), 0.0);
  for (auto [l, r] : result.pairs) right_of_left[static_cast<size_t>(l)] = r;
  for (const matching::Edge& e : edges) {
    if (right_of_left[static_cast<size_t>(e.left)] != e.right) continue;
    double& weight = weight_of_left[static_cast<size_t>(e.left)];
    weight = std::max(weight, e.weight);
  }
  for (auto [l, r] : result.pairs) {
    result.total_weight += weight_of_left[static_cast<size_t>(l)];
  }
  return result;
}

}  // namespace tamp::assign
