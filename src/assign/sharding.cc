#include "assign/sharding.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>

#include "common/check.h"
#include "common/obs/metrics.h"
#include "common/obs/trace.h"
#include "common/parallel.h"

namespace tamp::assign {
namespace {

/// Union-find over task/worker nodes that any number of threads may
/// extend at once: a root is linked under the smaller of the two roots
/// with a compare-and-swap that fails if it stopped being a root, and
/// finds halve their paths with plain atomic stores. A parent is always a
/// smaller node, so every path ends, and every component's root is its
/// smallest node — the same at any thread count and schedule.
class ConcurrentUnionFind {
 public:
  explicit ConcurrentUnionFind(size_t n) : parent_(n) {
    for (size_t i = 0; i < n; ++i) parent_[i] = static_cast<int>(i);
  }

  int Find(int x) {
    while (true) {
      const int p = Load(x);
      if (p == x) return x;
      const int grandparent = Load(p);
      if (grandparent != p) Ref(x).store(grandparent, kRelaxed);
      x = grandparent;
    }
  }

  /// Joins the sets of `a` and `b`.
  void Union(int a, int b) {
    while (true) {
      a = Find(a);
      b = Find(b);
      if (a == b) return;
      if (a > b) std::swap(a, b);
      int expected = b;
      if (Ref(b).compare_exchange_weak(expected, a, kRelaxed)) return;
    }
  }

 private:
  static constexpr std::memory_order kRelaxed = std::memory_order_relaxed;
  std::atomic_ref<int> Ref(int x) {
    return std::atomic_ref<int>(parent_[static_cast<size_t>(x)]);
  }
  int Load(int x) { return Ref(x).load(kRelaxed); }

  std::vector<int> parent_;
};

/// Tasks per chunk of the plan's parallel union pass.
constexpr size_t kPlanTasksPerChunk = 64;

/// The solve's per-calling-thread state, kept across calls so a call
/// allocates nothing once the batch sizes have been seen: every entry of
/// `edges_of_shard` is 0 and every entry of `worker_of_task` is -1 between
/// calls.
struct SolveScratch {
  std::vector<int> edges_of_shard;  // Then each active shard's cursor.
  std::vector<int> active;          // Touched shard ids, ascending.
  std::vector<int> edge_begin;      // Per active slot, into `edges`.
  std::vector<matching::Edge> edges;  // Shard-local, bucketed by slot.
  std::vector<int> lefts;             // The call's distinct tasks.
  std::vector<int> worker_of_task;    // Matched worker, or -1.
  std::vector<double> weight_of_task;

  void Reserve(size_t num_shards, size_t num_tasks) {
    if (edges_of_shard.size() < num_shards) {
      edges_of_shard.resize(num_shards, 0);
    }
    if (worker_of_task.size() < num_tasks) {
      worker_of_task.resize(num_tasks, -1);
      weight_of_task.resize(num_tasks, 0.0);
    }
  }
};

/// The calling thread's SolveScratch. Callers bind it to a local
/// reference: a lambda naming a thread_local directly would read the pool
/// thread's own instance.
SolveScratch& CallerScratch() {
  thread_local SolveScratch scratch;
  return scratch;
}

/// The shard-local edges of active slot `a`; `buffer` is the calling pool
/// thread's own, for edges built on the fly.
using ShardEdges = std::function<std::span<const matching::Edge>(
    size_t a, std::vector<matching::Edge>& buffer)>;

/// Solves `active` shards (ascending ids, so LPT order) on the edges
/// `edges_of` gives them and scatters every matched pair into
/// scratch.worker_of_task / weight_of_task. Each task lies in one shard,
/// so the writes are slot-indexed and the result does not depend on the
/// schedule. A pool region costs more than a few small solves (DESIGN.md
/// §4d), so below the measured crossover the same body runs inline.
void SolveShards(const ShardPlan& plan, std::span<const int> active,
                 int64_t active_cost, const ShardEdges& edges_of,
                 SolveScratch& scratch) {
  obs::TraceSpan solve_span("assign.shard_solve");
  int* worker_of_task = scratch.worker_of_task.data();
  double* weight_of_task = scratch.weight_of_task.data();
  auto solve = [&](size_t a) {
    thread_local matching::MatchingScratch matching_scratch;
    thread_local matching::MatchResult sub;
    thread_local std::vector<matching::Edge> buffer;
    const size_t s = static_cast<size_t>(active[a]);
    const Shard& shard = plan.shards[s];
    matching::MaxWeightMatching(shard.num_tasks, shard.num_workers,
                                edges_of(a, buffer), &matching_scratch, &sub);
    const std::span<const int> tasks = plan.TasksOf(s);
    const std::span<const int> workers = plan.WorkersOf(s);
    for (size_t i = 0; i < sub.pairs.size(); ++i) {
      const auto [l, r] = sub.pairs[i];
      const size_t task = static_cast<size_t>(tasks[static_cast<size_t>(l)]);
      worker_of_task[task] = workers[static_cast<size_t>(r)];
      weight_of_task[task] = sub.weights[i];
    }
  };
  ParallelForIf(active_cost >= kMinParallelShardCost, active.size(), solve);
}

/// Appends task `task`'s matched pair, if any, to `result` and clears its
/// slot. Called in ascending task order, which fixes the summation order.
void EmitTask(int task, SolveScratch& scratch, matching::MatchResult& result) {
  int& worker = scratch.worker_of_task[static_cast<size_t>(task)];
  if (worker >= 0) {
    const double weight = scratch.weight_of_task[static_cast<size_t>(task)];
    result.pairs.emplace_back(task, worker);
    result.weights.push_back(weight);
    result.total_weight += weight;
  }
  worker = -1;
}

}  // namespace

ShardPlan BuildShardPlan(const CandidateGraph& graph, int num_workers) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& count_counter =
      registry.GetCounter("assign.shard_count");
  static obs::Gauge& max_rows_gauge =
      registry.GetGauge("assign.shard_max_rows");

  TAMP_CHECK(num_workers >= 0);
  const int num_tasks = static_cast<int>(graph.num_tasks());
  const size_t T = static_cast<size_t>(num_tasks);
  const size_t W = static_cast<size_t>(num_workers);

  // Nodes 0..T-1 are tasks, T..T+W-1 are workers. Every row unions its
  // task with its worker. A pool region costs more than a small graph's
  // unions (DESIGN.md §4d), so below the measured crossover the chunks run
  // inline; the components are the same either way.
  ConcurrentUnionFind uf(T + W);
  auto unite = [&](size_t c) {
    const size_t end = std::min(T, (c + 1) * kPlanTasksPerChunk);
    for (size_t t = c * kPlanTasksPerChunk; t < end; ++t) {
      for (const TaskCandidate& row : graph.RowsOf(t)) {
        TAMP_DCHECK(row.worker >= 0 && row.worker < num_workers);
        uf.Union(static_cast<int>(t), num_tasks + row.worker);
      }
    }
  };
  ParallelForIf(static_cast<int64_t>(graph.rows.size()) >=
                    kMinParallelPlanRows,
                (T + kPlanTasksPerChunk - 1) / kPlanTasksPerChunk, unite);

  // Number the components by first appearance over ascending task index;
  // tasks (and workers) with no rows stay unsharded (-1).
  ShardPlan plan;
  plan.shard_of_task.assign(T, -1);
  plan.shard_of_worker.assign(W, -1);
  std::vector<int> component_of_root(T + W, -1);
  std::vector<Shard> components;
  for (size_t t = 0; t < T; ++t) {
    const int64_t rows = graph.offsets[t + 1] - graph.offsets[t];
    if (rows == 0) continue;
    int& component =
        component_of_root[static_cast<size_t>(uf.Find(static_cast<int>(t)))];
    if (component < 0) {
      component = static_cast<int>(components.size());
      components.emplace_back();
    }
    plan.shard_of_task[t] = component;
    ++components[static_cast<size_t>(component)].num_tasks;
    components[static_cast<size_t>(component)].rows += rows;
    plan.total_rows += rows;
  }
  for (size_t w = 0; w < W; ++w) {
    const int component = component_of_root[static_cast<size_t>(
        uf.Find(num_tasks + static_cast<int>(w)))];
    if (component < 0) continue;  // No row references this worker.
    plan.shard_of_worker[w] = component;
    ++components[static_cast<size_t>(component)].num_workers;
  }
  for (Shard& c : components) {
    c.cost = ShardCost(c.num_tasks, c.num_workers);
    plan.max_rows = std::max(plan.max_rows, c.rows);
  }

  // LPT order: most expensive shard first, so the pool's dynamic index
  // claiming balances thread load. stable_sort keeps equal-cost shards in
  // first-appearance order — the ordering is deterministic either way, but
  // stability makes it independent of the sort implementation.
  std::vector<int> order(components.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return components[static_cast<size_t>(a)].cost >
           components[static_cast<size_t>(b)].cost;
  });
  std::vector<int> rank_of(components.size());
  plan.shards.reserve(components.size());
  int first_task = 0, first_worker = 0;
  for (size_t rank = 0; rank < order.size(); ++rank) {
    rank_of[static_cast<size_t>(order[rank])] = static_cast<int>(rank);
    Shard shard = components[static_cast<size_t>(order[rank])];
    shard.first_task = first_task;
    shard.first_worker = first_worker;
    first_task += shard.num_tasks;
    first_worker += shard.num_workers;
    plan.shards.push_back(shard);
  }

  // Members, ascending within each shard: a member's shard-local id is its
  // position among its shard's members.
  plan.member_tasks.resize(static_cast<size_t>(first_task));
  plan.member_workers.resize(static_cast<size_t>(first_worker));
  plan.local_of_task.assign(T, -1);
  plan.local_of_worker.assign(W, -1);
  std::vector<int> filled(plan.shards.size(), 0);
  auto place = [&](std::vector<int>& shard_of, std::vector<int>& local_of,
                   std::vector<int>& members, int Shard::*first) {
    std::fill(filled.begin(), filled.end(), 0);
    for (size_t i = 0; i < shard_of.size(); ++i) {
      int& s = shard_of[i];
      if (s < 0) continue;
      s = rank_of[static_cast<size_t>(s)];
      const int local = filled[static_cast<size_t>(s)]++;
      local_of[i] = local;
      members[static_cast<size_t>(plan.shards[static_cast<size_t>(s)].*first +
                                  local)] = static_cast<int>(i);
    }
  };
  place(plan.shard_of_task, plan.local_of_task, plan.member_tasks,
        &Shard::first_task);
  place(plan.shard_of_worker, plan.local_of_worker, plan.member_workers,
        &Shard::first_worker);

  count_counter.Increment(static_cast<int64_t>(plan.shards.size()));
  max_rows_gauge.Set(static_cast<double>(plan.max_rows));
  return plan;
}

ShardPlan BuildShardPlan(const std::vector<std::vector<TaskCandidate>>& table,
                         const std::vector<SpatialTask>& tasks,
                         const std::vector<CandidateWorker>& workers) {
  TAMP_CHECK(table.size() == tasks.size());
  CandidateGraph graph;
  size_t total = 0;
  for (const std::vector<TaskCandidate>& rows : table) total += rows.size();
  graph.rows.reserve(total);
  graph.offsets.reserve(table.size() + 1);
  graph.offsets.push_back(0);
  for (const std::vector<TaskCandidate>& rows : table) {
    graph.rows.insert(graph.rows.end(), rows.begin(), rows.end());
    graph.offsets.push_back(static_cast<uint32_t>(graph.rows.size()));
  }
  return BuildShardPlan(graph, static_cast<int>(workers.size()));
}

matching::MatchResult MatchCandidateGraph(const CandidateGraph& graph,
                                          const ShardPlan& plan,
                                          double weight_floor_km) {
  const size_t num_tasks = graph.num_tasks();
  TAMP_CHECK(plan.shard_of_task.size() == num_tasks);
  matching::MatchResult result;
  if (plan.shards.empty()) return result;

  SolveScratch& scratch = CallerScratch();
  scratch.Reserve(plan.shards.size(), num_tasks);
  std::vector<int>& active = scratch.active;
  active.resize(plan.shards.size());
  int64_t cost = 0;
  for (size_t s = 0; s < active.size(); ++s) {
    active[s] = static_cast<int>(s);
    cost += plan.shards[s].cost;
  }
  // Every row is stage-3 feasible (GenerateCandidates checks a >= 0), so
  // every row of a shard's member tasks is one of its edges.
  SolveShards(
      plan, active, cost,
      [&](size_t s, std::vector<matching::Edge>& buffer) {
        buffer.clear();
        const std::span<const int> tasks = plan.TasksOf(s);
        for (size_t local = 0; local < tasks.size(); ++local) {
          for (const TaskCandidate& row :
               graph.RowsOf(static_cast<size_t>(tasks[local]))) {
            buffer.push_back(
                {static_cast<int>(local),
                 plan.local_of_worker[static_cast<size_t>(row.worker)],
                 1.0 / (row.min_dis + weight_floor_km)});
          }
        }
        return std::span<const matching::Edge>(buffer);
      },
      scratch);
  for (size_t t = 0; t < num_tasks; ++t) {
    EmitTask(static_cast<int>(t), scratch, result);
  }
  return result;
}

matching::MatchResult ShardedMaxWeightMatching(
    int num_left, int num_right, const std::vector<matching::Edge>& edges,
    const ShardPlan& plan) {
  TAMP_CHECK(num_left >= 0 && num_right >= 0);
  TAMP_CHECK(plan.shard_of_task.size() == static_cast<size_t>(num_left));
  TAMP_CHECK(plan.shard_of_worker.size() == static_cast<size_t>(num_right));
  matching::MatchResult result;
  if (edges.empty() || plan.shards.empty()) return result;

  SolveScratch& scratch = CallerScratch();
  scratch.Reserve(plan.shards.size(), static_cast<size_t>(num_left));
  // Which shards and tasks this call touches. A PPI stage-2 flush carries
  // a handful of edges against a plan built for the whole graph, so only
  // shards with a positive edge are solved, in the plan's LPT order.
  std::vector<int>& active = scratch.active;
  std::vector<int>& lefts = scratch.lefts;
  active.clear();
  lefts.clear();
  bool lefts_ascending = true;
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
    if (scratch.edges_of_shard[static_cast<size_t>(s)]++ == 0) {
      active.push_back(s);
    }
    // -2 marks a listed task until EmitTask clears it.
    int& mark = scratch.worker_of_task[static_cast<size_t>(e.left)];
    if (mark == -1) {
      mark = -2;
      lefts_ascending = lefts_ascending &&
                        (lefts.empty() || lefts.back() < e.left);
      lefts.push_back(e.left);
    }
  }
  if (active.empty()) return result;
  std::sort(active.begin(), active.end());
  if (!lefts_ascending) std::sort(lefts.begin(), lefts.end());

  // Bucket the positive edges by active shard, in input order, renumbered
  // to shard-local ids; each shard's count becomes its fill cursor.
  std::vector<int>& edge_begin = scratch.edge_begin;
  edge_begin.resize(active.size() + 1);
  int64_t cost = 0;
  int next = 0;
  for (size_t a = 0; a < active.size(); ++a) {
    int& cursor = scratch.edges_of_shard[static_cast<size_t>(active[a])];
    edge_begin[a] = next;
    next += cursor;
    cursor = edge_begin[a];
    cost += plan.shards[static_cast<size_t>(active[a])].cost;
  }
  edge_begin[active.size()] = next;
  scratch.edges.resize(static_cast<size_t>(next));
  for (const matching::Edge& e : edges) {
    if (e.weight <= 0.0) continue;
    const size_t s =
        static_cast<size_t>(plan.shard_of_task[static_cast<size_t>(e.left)]);
    scratch.edges[static_cast<size_t>(scratch.edges_of_shard[s]++)] = {
        plan.local_of_task[static_cast<size_t>(e.left)],
        plan.local_of_worker[static_cast<size_t>(e.right)], e.weight};
  }
  for (int s : active) scratch.edges_of_shard[static_cast<size_t>(s)] = 0;

  SolveShards(
      plan, active, cost,
      [&](size_t a, std::vector<matching::Edge>&) {
        return std::span<const matching::Edge>(
            scratch.edges.data() + edge_begin[a],
            static_cast<size_t>(edge_begin[a + 1] - edge_begin[a]));
      },
      scratch);
  for (int task : lefts) EmitTask(task, scratch, result);
  return result;
}

}  // namespace tamp::assign
