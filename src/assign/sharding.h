#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "assign/candidates.h"
#include "assign/types.h"
#include "matching/hungarian.h"

namespace tamp::assign {

/// Geo-sharded assignment (DESIGN.md §4k): the per-batch
/// candidate table decomposes into connected components of the bipartite
/// (task, worker) graph, and components share no feasible edge — so a
/// maximum-weight matching computed per component and concatenated is a
/// maximum-weight matching of the whole graph. With geographically
/// clustered fleets the largest component is orders of magnitude smaller
/// than the fleet, turning the one global Hungarian solve into many small
/// independent ones that the deterministic parallel runtime spreads over
/// the pool; each is compacted and rectangular (matching::
/// MaxWeightMatching), so a component of t tasks and w workers costs
/// O(min(t, w)^2 max(t, w)).

/// One connected component of the candidate graph, in batch indices.
struct Shard {
  std::vector<int> tasks;    // Ascending batch task indices.
  std::vector<int> workers;  // Ascending batch worker indices.
  /// Candidate-table rows inside the component.
  int64_t rows = 0;
  /// LPT cost model: rows x (tasks + workers), a proxy for the KM work.
  /// The compacted solve runs one augmentation per vertex of the smaller
  /// side, each a shortest-path sweep over the larger side's columns, and
  /// the rows grow with both sides. It overstates large shards against
  /// small ones (DESIGN.md §4d); it only orders the shards and gates the
  /// fan-out, so it cannot change a result.
  int64_t cost = 0;
};

/// The full decomposition of one batch's candidate table.
struct ShardPlan {
  /// Components in LPT order: cost descending (stable — ties keep first-
  /// appearance order), so the pool's dynamic index claiming schedules the
  /// most expensive solves first.
  std::vector<Shard> shards;
  std::vector<int> shard_of_task;    // -1 when the task has no rows.
  std::vector<int> shard_of_worker;  // -1 when no row references it.
  int64_t total_rows = 0;
  int64_t max_rows = 0;  // Rows of the largest shard (0 when no shards).
};

/// Builds the connected components of `table` via union-find over its
/// rows. `tasks`/`workers` are the batch vectors the table was built from
/// (`table.size() == tasks.size()`); only their sizes are read. Every
/// traversal is index-ordered (tasks ascending, each task's rows in table
/// order), so the plan — shard membership and ordering — is a pure
/// function of the table. Serial; records assign.shard_count /
/// assign.shard_max_rows.
ShardPlan BuildShardPlan(const std::vector<std::vector<TaskCandidate>>& table,
                         const std::vector<SpatialTask>& tasks,
                         const std::vector<CandidateWorker>& workers);

/// Summed Shard::cost of the active shards below which
/// ShardedMaxWeightMatching solves them inline: the crossover where a
/// 4-thread fan-out over 4 x 2 shards starts to beat the serial loop,
/// measured by bench_micro_parallel (DESIGN.md §4d). The sweep's 8 x 64
/// fleet shards cross over later, at 221,184; the lower of the two keeps
/// every swept shape that the fan-out speeds up off the serial path.
inline constexpr int64_t kMinParallelShardCost = 24576;

/// The assigners' one solve (KM and every PPI stage): partitions `edges`
/// by `plan`, solves each shard that has a positive edge with
/// matching::MaxWeightMatching — concurrently via ParallelFor when the
/// shards carry enough work to pay for the fan-out (a summed Shard::cost
/// of at least kMinParallelShardCost), each solve on a thread_local
/// MatchingScratch — and merges the per-shard matchings in
/// global left-ascending order, the exact emission order of the global
/// solve. total_weight is recomputed in that order, so the result is
/// bitwise-identical to MaxWeightMatching(num_left, num_right, edges)
/// whenever the optimum is unique (always, on the continuous distance
/// weights the assigners use; pinned against the global solve and brute
/// force by assign_sharding_test). A plan with one shard is the global
/// solve.
///
/// Every positive-weight edge must connect a task and worker of the same
/// shard (guaranteed when `plan` was built from the table the edges came
/// from).
matching::MatchResult ShardedMaxWeightMatching(
    int num_left, int num_right, const std::vector<matching::Edge>& edges,
    const ShardPlan& plan);

}  // namespace tamp::assign
