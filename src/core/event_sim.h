#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "assign/types.h"
#include "core/event_queue.h"
#include "core/simulator.h"
#include "data/workload.h"

namespace tamp::core {

/// Aggregate event counts of one EventSimulator::Run. Deterministic: a
/// pure function of the workload and the trigger schedule (bench_stream
/// gates these in bench/baselines/BENCH_stream.json), independent of
/// thread count.
struct EventStats {
  int64_t events = 0;  // Total events processed (sum of the per-kind rows).
  int64_t task_arrivals = 0;
  int64_t task_expiries = 0;
  int64_t worker_logins = 0;
  int64_t worker_completions = 0;
  int64_t assign_triggers = 0;
  int64_t worker_logouts = 0;
  /// Accepted assignments aborted mid-service (subset of the completions).
  int64_t dropouts = 0;
};

/// The event-queue simulation core (DESIGN.md §4j) — the online stage's
/// one engine. The client schedules assignment triggers
/// (ScheduleBatchTriggers for the paper's 2-minute cadence, or
/// ScheduleAssignTrigger one at a time); Run() seeds the workload's own
/// events — task arrivals and deadline expiries, one login/logout pair per
/// worker availability session (intersected with the worker's test
/// horizon), and a completion per accepted assignment — and drains the
/// queue in (time, kind, id) order.
///
/// State transitions per kind:
///  - task_arrival       pool.push_back(stream[id]) (also re-queues a
///                       dropped task, as a fresh copy: decline memory
///                       does not survive a dropout).
///  - task_expiry        removes stream[id]'s task from the pool if still
///                       pending (lazy no-op when already accepted).
///  - worker_login/out   toggles the session's worker online flag.
///                       Sessions must be disjoint (generated workloads
///                       are; see data::WorkerRecord::availability).
///  - worker_completion  frees the worker (id = worker index).
///  - assign_trigger     runs one BatchAssignStep over the pending pool
///                       and the online, non-busy fleet, then applies the
///                       outcome: bookkeeping, completion events, and —
///                       when the workload carries a DropoutModel — the
///                       per-(worker, task) dropout draw.
///
/// Because the event order is total and every draw is keyed by stable ids,
/// a run is bit-identical at any thread count. Its oracle is the
/// batch-synchronous loop the paper describes, kept as a test-local
/// reference over the same BatchAssignStep in tests/core_event_sim_test.cc:
/// on dropout-free workloads the two agree bitwise for every method.
class EventSimulator {
 public:
  /// `step` holds the shared per-batch machinery (and its warm forecast
  /// scratch); it must outlive the simulator.
  EventSimulator(const data::Workload& workload,
                 const SimulatorConfig& config, BatchAssignStep& step);

  /// Enqueues one assignment trigger. Call any number of times before
  /// Run(); the trigger's stable id is its call sequence number.
  void ScheduleAssignTrigger(double time_min);

  /// Enqueues the paper's batch cadence: one trigger per
  /// config.batch_window_min window from the first task release to the
  /// last task deadline, accumulated as `now += batch_window_min`. No-op
  /// on an empty task stream.
  void ScheduleBatchTriggers();

  /// Seeds the workload events and drains the queue. Single-shot: one
  /// Run per instance.
  SimMetrics Run(AssignMethod method,
                 const std::vector<WorkerPredictor>& predictors);

  /// Event counts of the completed Run.
  const EventStats& stats() const { return stats_; }

  /// When set, Run appends every processed event in pop order — the
  /// determinism tests assert the trace is identical across thread counts
  /// and insertion orders.
  void set_event_trace(std::vector<SimEvent>* trace) { trace_ = trace; }

 private:
  void SeedWorkloadEvents();
  void HandleAssignTrigger(double now, AssignMethod method,
                           const std::vector<WorkerPredictor>& predictors,
                           SimMetrics* metrics);
  /// Index into workload.task_stream of the task with this id.
  size_t StreamIndexOf(int task_id) const;
  /// Removes the task with this id from the pending pool if present.
  void ErasePooledTask(int task_id);

  const data::Workload& workload_;
  const SimulatorConfig& config_;
  BatchAssignStep& step_;

  EventQueue queue_;
  int64_t next_trigger_id_ = 0;
  /// Worker index behind each flat login/logout session id.
  std::vector<int> session_worker_;
  std::deque<assign::SpatialTask> pool_;  // Pending (released, unexpired).
  std::vector<char> online_;  // Inside an availability session right now.
  std::vector<char> busy_;    // Serving an accepted task right now.
  std::vector<int> available_;  // Per-trigger scratch.
  EventStats stats_;
  std::vector<SimEvent>* trace_ = nullptr;
};

}  // namespace tamp::core
