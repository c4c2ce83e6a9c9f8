#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "assign/candidates.h"
#include "assign/types.h"
#include "matching/hungarian.h"

namespace tamp::assign {

/// Geo-sharded assignment (DESIGN.md §4k): the per-batch candidate graph
/// decomposes into connected components of the bipartite (task, worker)
/// graph, and components share no feasible edge — so a maximum-weight
/// matching computed per component and concatenated is a maximum-weight
/// matching of the whole graph. With geographically clustered fleets the
/// largest component is orders of magnitude smaller than the fleet,
/// turning the one global Hungarian solve into many small independent ones
/// that the deterministic parallel runtime spreads over the pool; each is
/// compacted and rectangular (matching::MaxWeightMatching), so a component
/// of t tasks and w workers costs O(min(t, w)^2 max(t, w)).

/// One connected component of the candidate graph. Its members are slices
/// of ShardPlan::member_tasks / member_workers (ShardPlan::TasksOf /
/// WorkersOf), ascending batch indices; a member's shard-local id is its
/// position there.
struct Shard {
  int first_task = 0;
  int num_tasks = 0;
  int first_worker = 0;
  int num_workers = 0;
  /// Candidate-graph rows inside the component.
  int64_t rows = 0;
  /// LPT cost model of the component's solve (ShardCost). It only orders
  /// the shards and gates the fan-out, so it cannot change a result.
  int64_t cost = 0;
};

/// The full decomposition of one batch's candidate graph, built once per
/// batch and read by every solve of that batch.
struct ShardPlan {
  /// Components in LPT order: cost descending (stable — ties keep first-
  /// appearance order), so the pool's dynamic index claiming schedules the
  /// most expensive solves first.
  std::vector<Shard> shards;
  /// Every shard's member tasks (workers), shard after shard.
  std::vector<int> member_tasks;
  std::vector<int> member_workers;
  std::vector<int> shard_of_task;    // -1 when the task has no rows.
  std::vector<int> shard_of_worker;  // -1 when no row references it.
  std::vector<int> local_of_task;    // Shard-local id; -1 when unsharded.
  std::vector<int> local_of_worker;  // Shard-local id; -1 when unsharded.
  int64_t total_rows = 0;
  int64_t max_rows = 0;  // Rows of the largest shard (0 when no shards).

  std::span<const int> TasksOf(size_t shard) const {
    const Shard& s = shards[shard];
    return {member_tasks.data() + s.first_task,
            static_cast<size_t>(s.num_tasks)};
  }
  std::span<const int> WorkersOf(size_t shard) const {
    const Shard& s = shards[shard];
    return {member_workers.data() + s.first_worker,
            static_cast<size_t>(s.num_workers)};
  }
};

/// The LPT cost model of a shard of `tasks` x `workers`: the compacted
/// rectangular solve's min(t, w)^2 max(t, w) — min(t, w) augmentations,
/// each a shortest-path sweep of up to min(t, w) rows over max(t, w)
/// columns (DESIGN.md §4d compares it with measured solve times).
inline int64_t ShardCost(int64_t tasks, int64_t workers) {
  const int64_t lo = tasks < workers ? tasks : workers;
  const int64_t hi = tasks < workers ? workers : tasks;
  return lo * lo * hi;
}

/// Graph rows from which BuildShardPlan's union pass fans out over the
/// pool: the crossover measured by bench_micro_parallel (DESIGN.md §4d).
inline constexpr int64_t kMinParallelPlanRows = 131072;

/// Builds the connected components of `graph` via a union-find over its
/// rows (concurrent above kMinParallelPlanRows); `num_workers` is the
/// batch's worker count. Components are numbered by first appearance over
/// ascending task index, so the plan — shard membership, numbering and
/// ordering — is a pure function of the graph at any thread count.
/// Records assign.shard_count / assign.shard_max_rows.
ShardPlan BuildShardPlan(const CandidateGraph& graph, int num_workers);

/// The same plan from one row vector per task (`table.size() ==
/// tasks.size()`; only the batch sizes are read): an adapter for
/// bench/e2e's layer probe. No assigner calls it.
ShardPlan BuildShardPlan(const std::vector<std::vector<TaskCandidate>>& table,
                         const std::vector<SpatialTask>& tasks,
                         const std::vector<CandidateWorker>& workers);

/// Summed ShardCost of the shards a solve touches below which the solve
/// runs them inline: the crossover where a 4-thread fan-out starts to beat
/// the serial loop, measured by bench_micro_parallel over 8 x 64 shards (6
/// shards); 4 x 2 shards stay inline across the whole sweep, where the
/// fan-out never paid back (DESIGN.md §4d).
inline constexpr int64_t kMinParallelShardCost = 24576;

/// KM's solve (Section IV-A): every row of `graph` is an edge of weight
/// 1 / (min_dis + weight_floor_km), and `plan` was built from `graph`.
/// Each shard's edges are read in place from its members' rows, so no edge
/// list is built beside the graph. Equal, bitwise, to
/// matching::MaxWeightMatching over those edges whenever the optimum is
/// unique (see ShardedMaxWeightMatching).
matching::MatchResult MatchCandidateGraph(const CandidateGraph& graph,
                                          const ShardPlan& plan,
                                          double weight_floor_km);

/// The solve of an explicit edge list in batch ids (every PPI stage and
/// stage-2 flush): buckets the positive edges by shard and solves only the
/// shards they touch, each compacted to its own edges, so a call costs
/// O(its edges + touched shards). Both solves run each shard with
/// matching::MaxWeightMatching — concurrently via ParallelFor when the
/// touched shards' summed ShardCost reaches kMinParallelShardCost, each on
/// a thread_local MatchingScratch — scatter the matched pairs into per-task
/// slots and emit them in ascending task order, the global solve's
/// emission order, summing total_weight in that order. So the result is
/// bitwise-identical to MaxWeightMatching(num_left, num_right, edges)
/// whenever the optimum is unique (always, on the continuous distance
/// weights the assigners use; pinned against the global solve and brute
/// force by assign_sharding_test). A plan with one shard is the global
/// solve.
///
/// Every positive-weight edge must connect a task and worker of the same
/// shard (guaranteed when `plan` was built from the graph the edges came
/// from).
matching::MatchResult ShardedMaxWeightMatching(
    int num_left, int num_right, const std::vector<matching::Edge>& edges,
    const ShardPlan& plan);

}  // namespace tamp::assign
