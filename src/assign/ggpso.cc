#include "assign/ggpso.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "assign/candidate_index.h"
#include "assign/candidates.h"
#include "common/check.h"
#include "common/obs/metrics.h"
#include "common/obs/trace.h"
#include "common/stopwatch.h"

namespace tamp::assign {
namespace {

/// A chromosome: worker index per task, or -1 when unassigned. Workers
/// appear at most once.
struct Individual {
  std::vector<int> worker_of_task;
  double fitness = -std::numeric_limits<double>::infinity();
};

struct FeasibleEdge {
  int worker = -1;
  double min_dis = 0.0;
};

/// Feasible workers per task plus the distance used by the fitness term.
using FeasibilityTable = std::vector<std::vector<FeasibleEdge>>;

FeasibilityTable BuildTable(const std::vector<SpatialTask>& tasks,
                            const std::vector<CandidateWorker>& workers,
                            double match_radius_km, double now_min) {
  static obs::Histogram& build_hist =
      obs::MetricsRegistry::Global().GetHistogram(
          "assign.index_build_s", obs::DurationEdgesSeconds());
  std::optional<CandidateIndex> index;
  {
    obs::TraceSpan build_span("ggpso.index_build");
    Stopwatch build_watch;
    index.emplace(workers);
    build_hist.Record(build_watch.ElapsedSeconds());
  }
  const std::vector<std::vector<TaskCandidate>> candidates =
      GenerateCandidates(tasks, workers, match_radius_km, now_min, &*index);
  FeasibilityTable table(tasks.size());
  for (size_t t = 0; t < candidates.size(); ++t) {
    for (const TaskCandidate& tc : candidates[t]) {
      if (tc.stage3_feasible) table[t].push_back({tc.worker, tc.min_dis});
    }
  }
  return table;
}

double MinDisOf(const FeasibilityTable& table, size_t task, int worker) {
  for (const FeasibleEdge& e : table[task]) {
    if (e.worker == worker) return e.min_dis;
  }
  return std::numeric_limits<double>::infinity();
}

double Fitness(const Individual& ind, const FeasibilityTable& table,
               double cost_weight) {
  double completed = 0.0, cost_term = 0.0;
  for (size_t t = 0; t < ind.worker_of_task.size(); ++t) {
    int w = ind.worker_of_task[t];
    if (w < 0) continue;
    completed += 1.0;
    cost_term += 1.0 / (1.0 + MinDisOf(table, t, w));
  }
  return completed + cost_weight * cost_term;
}

Individual RandomIndividual(const FeasibilityTable& table, int num_workers,
                            Rng& rng) {
  Individual ind;
  ind.worker_of_task.assign(table.size(), -1);
  std::vector<char> used(static_cast<size_t>(num_workers), 0);
  std::vector<size_t> order(table.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(order);
  for (size_t t : order) {
    if (table[t].empty()) continue;
    size_t pick = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(table[t].size()) - 1));
    // Linear probe from a random start so every feasible worker can win.
    for (size_t probe = 0; probe < table[t].size(); ++probe) {
      const FeasibleEdge& e = table[t][(pick + probe) % table[t].size()];
      if (!used[static_cast<size_t>(e.worker)]) {
        ind.worker_of_task[t] = e.worker;
        used[static_cast<size_t>(e.worker)] = 1;
        break;
      }
    }
  }
  return ind;
}

/// PSO-style guided crossover: the child keeps each gene from the global
/// best with probability `pull`, otherwise from the parent, repairing
/// duplicate workers by dropping later conflicts.
Individual Crossover(const Individual& parent, const Individual& best,
                     int num_workers, double pull, Rng& rng) {
  Individual child;
  child.worker_of_task.assign(parent.worker_of_task.size(), -1);
  std::vector<char> used(static_cast<size_t>(num_workers), 0);
  for (size_t t = 0; t < parent.worker_of_task.size(); ++t) {
    int gene = rng.Bernoulli(pull) ? best.worker_of_task[t]
                                   : parent.worker_of_task[t];
    if (gene >= 0 && !used[static_cast<size_t>(gene)]) {
      child.worker_of_task[t] = gene;
      used[static_cast<size_t>(gene)] = 1;
    }
  }
  return child;
}

void Mutate(Individual& ind, const FeasibilityTable& table, int num_workers,
            double rate, Rng& rng) {
  std::vector<char> used(static_cast<size_t>(num_workers), 0);
  for (int w : ind.worker_of_task) {
    if (w >= 0) used[static_cast<size_t>(w)] = 1;
  }
  for (size_t t = 0; t < ind.worker_of_task.size(); ++t) {
    if (table[t].empty() || !rng.Bernoulli(rate)) continue;
    size_t pick = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(table[t].size()) - 1));
    int candidate = table[t][pick].worker;
    if (used[static_cast<size_t>(candidate)]) continue;
    if (ind.worker_of_task[t] >= 0) {
      used[static_cast<size_t>(ind.worker_of_task[t])] = 0;
    }
    ind.worker_of_task[t] = candidate;
    used[static_cast<size_t>(candidate)] = 1;
  }
}

}  // namespace

AssignmentPlan GgpsoAssign(const std::vector<SpatialTask>& tasks,
                           const std::vector<CandidateWorker>& workers,
                           double now_min, const GgpsoConfig& config) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& solves_counter = registry.GetCounter("ggpso.solves");
  static obs::Counter& generations_counter =
      registry.GetCounter("ggpso.generations");
  static obs::Histogram& solve_hist =
      registry.GetHistogram("ggpso.solve_s", obs::DurationEdgesSeconds());

  AssignmentPlan plan;
  if (tasks.empty() || workers.empty()) return plan;
  TAMP_CHECK(config.population > 1 && config.generations > 0);

  solves_counter.Increment();
  generations_counter.Increment(config.generations);
  Stopwatch solve_watch;
  obs::TraceSpan solve_span("ggpso.solve");

  FeasibilityTable table =
      BuildTable(tasks, workers, config.match_radius_km, now_min);
  Rng rng(config.seed);
  const int num_workers = static_cast<int>(workers.size());

  std::vector<Individual> population;
  population.reserve(static_cast<size_t>(config.population));
  for (int i = 0; i < config.population; ++i) {
    population.push_back(RandomIndividual(table, num_workers, rng));
    population.back().fitness =
        Fitness(population.back(), table, config.cost_weight);
  }
  Individual best = *std::max_element(
      population.begin(), population.end(),
      [](const Individual& a, const Individual& b) {
        return a.fitness < b.fitness;
      });

  for (int gen = 0; gen < config.generations; ++gen) {
    std::vector<Individual> next;
    next.reserve(static_cast<size_t>(config.population));
    next.push_back(best);  // Elitism.
    while (static_cast<int>(next.size()) < config.population) {
      // Tournament selection of the parent.
      size_t a = static_cast<size_t>(
          rng.UniformInt(0, config.population - 1));
      size_t b = static_cast<size_t>(
          rng.UniformInt(0, config.population - 1));
      const Individual& parent = population[a].fitness >= population[b].fitness
                                     ? population[a]
                                     : population[b];
      Individual child = rng.Bernoulli(config.crossover_rate)
                             ? Crossover(parent, best, num_workers, 0.5, rng)
                             : parent;
      Mutate(child, table, num_workers, config.mutation_rate, rng);
      child.fitness = Fitness(child, table, config.cost_weight);
      if (child.fitness > best.fitness) best = child;
      next.push_back(std::move(child));
    }
    population = std::move(next);
  }

  for (size_t t = 0; t < best.worker_of_task.size(); ++t) {
    int w = best.worker_of_task[t];
    if (w < 0) continue;
    plan.pairs.push_back({static_cast<int>(t), w, MinDisOf(table, t, w)});
  }
  solve_hist.Record(solve_watch.ElapsedSeconds());
  return plan;
}

}  // namespace tamp::assign
