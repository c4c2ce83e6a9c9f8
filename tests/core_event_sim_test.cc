#include "core/event_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "common/obs/metrics.h"
#include "common/parallel.h"
#include "core/pipeline.h"
#include "core/simulator.h"
#include "data/workload.h"
#include "nn/encoder_decoder.h"

namespace tamp::core {
namespace {

/// Restores the parallel thread count on scope exit so a failing test
/// can't leak its thread setting into the rest of the binary.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int threads) : saved_(ParallelThreadCount()) {
    SetParallelThreadCount(threads);
  }
  ~ThreadCountGuard() { SetParallelThreadCount(saved_); }

 private:
  int saved_;
};

/// Bitwise SimMetrics comparison (assign_seconds is wall-clock and
/// deliberately excluded — everything else must match exactly).
void ExpectBitwiseEqual(const SimMetrics& a, const SimMetrics& b,
                        const char* context) {
  EXPECT_EQ(a.total_tasks, b.total_tasks) << context;
  EXPECT_EQ(a.assignments, b.assignments) << context;
  EXPECT_EQ(a.accepted, b.accepted) << context;
  EXPECT_EQ(a.completed, b.completed) << context;
  EXPECT_EQ(a.dropouts, b.dropouts) << context;
  EXPECT_EQ(a.total_cost_km, b.total_cost_km) << context;  // Bitwise.
}

// ---------------------------------------------------------------------------
// Hand-built workloads: availability windows, dropout, expiry ordering.
// ---------------------------------------------------------------------------

/// A worker parked at (x, y) for the whole test horizon — acceptance is
/// then a zero-detour formality, so each test controls outcomes purely
/// through sessions, deadlines, and the dropout model.
data::WorkerRecord StationaryWorker(int id, double x, double y,
                                    double horizon_end_min) {
  data::WorkerRecord record;
  record.id = id;
  // One sample per minute: the acceptance test plans against the sample
  // points inside Slice(now, now + horizon), so the routine must actually
  // carry points there.
  std::vector<geo::TimedPoint> points;
  for (double t = 0.0; t <= horizon_end_min; t += 1.0) {
    points.push_back({x, y, t});
  }
  record.test = geo::Trajectory(std::move(points));
  record.detour_budget_km = 4.0;
  record.speed_kmpm = 0.5;
  record.online_start_min = 0.0;
  record.online_end_min = horizon_end_min;
  record.availability = {{0.0, horizon_end_min}};
  return record;
}

assign::SpatialTask MakeTask(int id, double x, double y, double release_min,
                             double deadline_min) {
  assign::SpatialTask task;
  task.id = id;
  task.location = {x, y};
  task.release_time_min = release_min;
  task.deadline_min = deadline_min;
  return task;
}

/// A small model: the hand-built tests use the prediction-free LB, which
/// never consults it.
nn::Seq2SeqConfig TinyModelConfig() {
  nn::Seq2SeqConfig model_config;
  model_config.input_dim = data::kSampleInputDim;
  model_config.hidden_dim = 4;
  return model_config;
}

/// Runs a hand-built workload through the event core directly, on the
/// batch cadence ScheduleBatchTriggers lays down, returning metrics + stats
/// and optionally capturing the drained event sequence.
struct EventRun {
  SimMetrics metrics;
  EventStats stats;
};

EventRun RunEventHorizon(const data::Workload& workload,
                         const SimulatorConfig& config, AssignMethod method,
                         std::vector<SimEvent>* trace = nullptr) {
  nn::EncoderDecoder model(TinyModelConfig());
  BatchAssignStep step(workload, model, config);
  EventSimulator sim(workload, config, step);
  sim.set_event_trace(trace);
  sim.ScheduleBatchTriggers();
  std::vector<WorkerPredictor> predictors(workload.workers.size());
  EventRun run;
  run.metrics = sim.Run(method, predictors);
  run.stats = sim.stats();
  return run;
}

// ---------------------------------------------------------------------------
// The oracle: the batch-synchronous loop of the paper's online stage.
// ---------------------------------------------------------------------------

/// Outcome of the reference loop.
struct ReferenceRun {
  SimMetrics metrics;
  int64_t skips = 0;  // Windows with an empty pool or nobody available.
};

/// The batch-synchronous online stage (Section IV-B), written out as the
/// paper describes it: every batch_window_min from the first release to
/// the last deadline, admit the released tasks, purge the expired ones,
/// collect the on-shift, in-session, free workers and run one
/// BatchAssignStep. Accepted tasks leave the pool and busy their worker;
/// declined ones stay pooled. It shares BatchAssignStep with the event
/// engine and nothing else: no queue, no events, its own window arithmetic
/// and availability predicate. Workloads with a dropout model are out of
/// its scope.
ReferenceRun RunBatchReference(const data::Workload& workload,
                               const SimulatorConfig& config,
                               const nn::EncoderDecoder& model,
                               AssignMethod method,
                               const std::vector<WorkerPredictor>& predictors) {
  ReferenceRun run;
  SimMetrics& metrics = run.metrics;
  const std::vector<data::WorkerRecord>& workers = workload.workers;
  metrics.total_tasks = static_cast<int>(workload.task_stream.size());
  if (workers.empty() || workload.task_stream.empty()) return run;

  BatchAssignStep step(workload, model, config);
  const double horizon_start = workload.task_stream.front().release_time_min;
  double horizon_end = 0.0;
  for (const assign::SpatialTask& task : workload.task_stream) {
    horizon_end = std::max(horizon_end, task.deadline_min);
  }
  std::vector<double> busy_until(workers.size(), 0.0);
  std::deque<assign::SpatialTask> pool;  // Pending (released, unexpired).
  size_t next_release = 0;
  for (double now = horizon_start; now <= horizon_end;
       now += config.batch_window_min) {
    while (next_release < workload.task_stream.size() &&
           workload.task_stream[next_release].release_time_min <= now) {
      pool.push_back(workload.task_stream[next_release]);
      ++next_release;
    }
    PurgeExpiredTasks(pool, now);
    if (pool.empty()) {
      ++run.skips;
      continue;
    }
    std::vector<int> available;
    for (size_t w = 0; w < workers.size(); ++w) {
      if (busy_until[w] > now) continue;
      if (workers[w].test.empty()) continue;
      if (now < workers[w].test.start_time() ||
          now > workers[w].test.end_time()) {
        continue;
      }
      if (!workers[w].AvailableAt(now)) continue;  // Between sessions.
      available.push_back(static_cast<int>(w));
    }
    if (available.empty()) {
      ++run.skips;
      continue;
    }

    BatchAssignStep::Outcome outcome =
        step.Step(method, predictors, now, pool, available);
    metrics.assignments += outcome.assignments;
    for (const BatchAssignStep::Accepted& accepted : outcome.accepted) {
      ++metrics.accepted;
      ++metrics.completed;
      metrics.total_cost_km += accepted.detour_km;
      busy_until[static_cast<size_t>(accepted.worker)] =
          accepted.busy_until_min;
      for (auto it = pool.begin(); it != pool.end(); ++it) {
        if (it->id == accepted.task_id) {
          pool.erase(it);
          break;
        }
      }
    }
  }
  return run;
}

/// Event engine vs the reference loop on a hand-built workload, with the
/// prediction-free LB (no trained models needed).
void ExpectMatchesReference(const data::Workload& workload,
                            const SimulatorConfig& config,
                            const char* context) {
  nn::EncoderDecoder model(TinyModelConfig());
  std::vector<WorkerPredictor> predictors(workload.workers.size());
  ExpectBitwiseEqual(
      RunEventHorizon(workload, config, AssignMethod::kLowerBound).metrics,
      RunBatchReference(workload, config, model, AssignMethod::kLowerBound,
                        predictors)
          .metrics,
      context);
}

TEST(EventSimEdgeCaseTest, SameInstantExpiryBeatsAssignTrigger) {
  // Regression pin for the same-instant semantics: a task whose deadline
  // falls exactly on a batch instant must never be proposed at that
  // instant (kTaskExpiry sorts before kAssignTrigger). The worker logs in
  // at 11, so the only trigger that could serve task 0 is t=12 — exactly
  // its deadline.
  data::Workload workload;
  workload.workers.push_back(StationaryWorker(0, 5.0, 5.0, 200.0));
  workload.workers[0].availability = {{11.0, 200.0}};
  workload.task_stream.push_back(MakeTask(0, 5.0, 5.0, 10.0, 12.0));
  workload.task_stream.push_back(MakeTask(1, 5.0, 5.0, 10.0, 100.0));

  SimulatorConfig config;
  EventRun run = RunEventHorizon(workload, config, AssignMethod::kLowerBound);
  // Only task 1 is ever assigned; task 0 died on the trigger instant.
  EXPECT_EQ(run.metrics.assignments, 1);
  EXPECT_EQ(run.metrics.accepted, 1);
  EXPECT_EQ(run.metrics.completed, 1);
  EXPECT_EQ(run.metrics.dropouts, 0);
  // Both expiry events fire (task 1's lazily, after its acceptance).
  EXPECT_EQ(run.stats.task_expiries, 2);
  EXPECT_EQ(run.stats.task_arrivals, 2);
  ExpectMatchesReference(workload, config, "same-instant expiry");
}

TEST(EventSimEdgeCaseTest, LogoutMidServiceStillCompletes) {
  // The worker accepts at t=10 (busy through the ~2-minute service) and
  // their session ends at t=11, mid-service. The accepted task still
  // completes — acceptance is a commitment — but the worker takes nothing
  // afterwards: task 1, released at 12.5 with a wide-open deadline, is
  // never assigned because the only worker is logged out.
  data::Workload workload;
  workload.workers.push_back(StationaryWorker(0, 5.0, 5.0, 200.0));
  workload.workers[0].availability = {{0.0, 11.0}};
  workload.task_stream.push_back(MakeTask(0, 5.0, 5.0, 10.0, 100.0));
  workload.task_stream.push_back(MakeTask(1, 5.0, 5.0, 12.5, 100.0));

  SimulatorConfig config;
  EventRun run = RunEventHorizon(workload, config, AssignMethod::kLowerBound);
  EXPECT_EQ(run.metrics.assignments, 1);
  EXPECT_EQ(run.metrics.accepted, 1);
  EXPECT_EQ(run.metrics.completed, 1);
  EXPECT_EQ(run.stats.worker_logins, 1);
  EXPECT_EQ(run.stats.worker_logouts, 1);
  // Exactly one completion event: the mid-service logout does not abort
  // the committed task (only the dropout model can).
  EXPECT_EQ(run.stats.worker_completions, 1);
  ExpectMatchesReference(workload, config, "logout mid-service");
}

TEST(EventSimEdgeCaseTest, SessionGapLeavesMidGapTaskUnserved) {
  // Churn-style availability: two short sessions with a dead gap between
  // them. A task that lives entirely inside the gap expires unserved even
  // though the worker is free, in budget, and in range the whole time.
  data::Workload workload;
  workload.workers.push_back(StationaryWorker(0, 5.0, 5.0, 200.0));
  workload.workers[0].availability = {{10.0, 12.0}, {20.0, 22.0}};
  workload.task_stream.push_back(MakeTask(0, 5.0, 5.0, 10.0, 100.0));
  workload.task_stream.push_back(MakeTask(1, 5.0, 5.0, 13.0, 19.0));

  SimulatorConfig config;
  EventRun run = RunEventHorizon(workload, config, AssignMethod::kLowerBound);
  // Task 0 is served in the first session; task 1 (alive only over the
  // triggers at 14/16/18, all inside the gap) never is.
  EXPECT_EQ(run.metrics.assignments, 1);
  EXPECT_EQ(run.metrics.completed, 1);
  EXPECT_EQ(run.stats.worker_logins, 2);
  EXPECT_EQ(run.stats.worker_logouts, 2);
  ExpectMatchesReference(workload, config, "session gap");
}

TEST(EventSimEdgeCaseTest, CertainDropoutNeverCompletes) {
  // dropout.prob == 1: every acceptance aborts mid-service. The draw is a
  // pure function of (worker, task), so the re-pooled task keeps drawing
  // the same abort until its deadline — nothing ever completes and no
  // detour cost is booked.
  data::Workload workload;
  workload.dropout = {1.0, 99};
  workload.workers.push_back(StationaryWorker(0, 5.0, 5.0, 200.0));
  workload.task_stream.push_back(MakeTask(0, 5.5, 5.0, 10.0, 30.0));

  SimulatorConfig config;
  EventRun run = RunEventHorizon(workload, config, AssignMethod::kLowerBound);
  EXPECT_EQ(run.metrics.completed, 0);
  EXPECT_EQ(run.metrics.total_cost_km, 0.0);
  EXPECT_EQ(run.metrics.dropouts, run.metrics.accepted);
  // The aborted task re-pools and is re-accepted at later triggers.
  EXPECT_GE(run.metrics.dropouts, 2);
  EXPECT_EQ(run.stats.dropouts,
            static_cast<int64_t>(run.metrics.dropouts));
  // One completion event per acceptance, dropped or not.
  EXPECT_EQ(run.stats.worker_completions,
            static_cast<int64_t>(run.metrics.accepted));
  // Each abort re-arrives (the deadline cutoff eventually stops it).
  EXPECT_GE(run.stats.task_arrivals, run.stats.dropouts);
}

TEST(EventSimEdgeCaseTest, SkippedTriggersCountLikeTheReferenceLoop) {
  // A trigger that finds no pending task, or tasks but nobody available,
  // must skip the solver yet still be accounted on sim.batch_skips — the
  // same windows the reference loop skips. The workload forces both skip
  // kinds: after task 0 is served the pool sits empty for ~40 minutes of
  // triggers, and task 1 (released at 50) finds every session already
  // over.
  data::Workload workload;
  workload.workers.push_back(StationaryWorker(0, 5.0, 5.0, 200.0));
  workload.workers[0].availability = {{10.0, 12.0}, {30.0, 32.0}};
  workload.task_stream.push_back(MakeTask(0, 5.0, 5.0, 10.0, 40.0));
  workload.task_stream.push_back(MakeTask(1, 5.0, 5.0, 50.0, 60.0));

  SimulatorConfig config;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& skips = registry.GetCounter("sim.batch_skips");
  obs::Counter& batches = registry.GetCounter("sim.batches");

  int64_t skips_before = skips.value();
  int64_t batches_before = batches.value();
  EventRun event_run =
      RunEventHorizon(workload, config, AssignMethod::kLowerBound);
  const int64_t event_skips = skips.value() - skips_before;
  const int64_t event_batches = batches.value() - batches_before;

  batches_before = batches.value();
  nn::EncoderDecoder model(TinyModelConfig());
  std::vector<WorkerPredictor> predictors(workload.workers.size());
  ReferenceRun reference = RunBatchReference(
      workload, config, model, AssignMethod::kLowerBound, predictors);
  const int64_t reference_batches = batches.value() - batches_before;

  ExpectBitwiseEqual(event_run.metrics, reference.metrics, "skip accounting");
  EXPECT_GT(event_skips, 0);
  EXPECT_GT(event_batches, 0);
  EXPECT_EQ(event_skips, reference.skips);
  EXPECT_EQ(event_batches, reference_batches);
  // Every trigger either reached the solver (sim.batches) or was skipped.
  EXPECT_EQ(event_run.stats.assign_triggers, event_batches + event_skips);
}

TEST(EventSimEdgeCaseTest, StatsAccountForEveryEvent) {
  data::Workload workload;
  workload.workers.push_back(StationaryWorker(0, 5.0, 5.0, 200.0));
  workload.workers[0].availability = {{10.0, 12.0}, {20.0, 22.0}};
  workload.task_stream.push_back(MakeTask(0, 5.0, 5.0, 10.0, 40.0));
  workload.task_stream.push_back(MakeTask(1, 5.0, 5.0, 13.0, 19.0));

  SimulatorConfig config;
  std::vector<SimEvent> trace;
  EventRun run =
      RunEventHorizon(workload, config, AssignMethod::kLowerBound, &trace);
  EXPECT_EQ(run.stats.events,
            run.stats.task_arrivals + run.stats.task_expiries +
                run.stats.worker_logins + run.stats.worker_completions +
                run.stats.assign_triggers + run.stats.worker_logouts);
  EXPECT_EQ(run.stats.events, static_cast<int64_t>(trace.size()));
  // One trigger per batch window over [10, 40].
  EXPECT_EQ(run.stats.assign_triggers, 16);
  // The drained sequence respects the (time, kind, id) total order.
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_FALSE(EventBefore(trace[i], trace[i - 1])) << "position " << i;
  }
}

// ---------------------------------------------------------------------------
// Trained-pipeline parity: the pipeline's event engine vs the reference
// loop, Porto + Gowalla.
// ---------------------------------------------------------------------------

data::WorkloadConfig ParityWorkload(data::WorkloadKind kind) {
  data::WorkloadConfig config;
  config.kind = kind;
  config.num_workers = 12;
  config.num_train_days = 2;
  config.num_tasks = 60;
  config.num_historical_tasks = 300;
  config.seed = kind == data::WorkloadKind::kPortoDidi ? 33 : 44;
  return config;
}

PipelineConfig ParityPipeline() {
  PipelineConfig config;
  config.trainer.model.hidden_dim = 6;
  config.trainer.meta.iterations = 3;
  config.trainer.fine_tune_steps = 3;
  config.trainer.projection_dim = 8;
  config.trainer.tree.game.k = 2;
  config.sim.prediction_horizon_steps = 4;
  config.sim.ggpso.generations = 10;
  config.sim.ggpso.population = 10;
  return config;
}

/// One workload + one offline training pass per dataset, shared across the
/// parity tests (training dominates the suite's cost).
class EventBatchParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TampPipeline trainer(ParityPipeline());
    porto_ = new data::Workload(data::GenerateWorkload(
        ParityWorkload(data::WorkloadKind::kPortoDidi)));
    porto_offline_ = new OfflineResult(trainer.TrainOffline(*porto_));
    gowalla_ = new data::Workload(data::GenerateWorkload(
        ParityWorkload(data::WorkloadKind::kGowallaFoursquare)));
    gowalla_offline_ = new OfflineResult(trainer.TrainOffline(*gowalla_));
  }
  static void TearDownTestSuite() {
    delete gowalla_offline_;
    delete gowalla_;
    delete porto_offline_;
    delete porto_;
    gowalla_offline_ = nullptr;
    gowalla_ = nullptr;
    porto_offline_ = nullptr;
    porto_ = nullptr;
  }

  /// The predictors TampPipeline::RunOnline hands the simulator: trained
  /// models for the predicting methods, none for UB/LB.
  static std::vector<WorkerPredictor> PredictorsFor(
      AssignMethod method, const data::Workload& workload,
      const OfflineResult& offline) {
    std::vector<WorkerPredictor> predictors(workload.workers.size());
    if (method != AssignMethod::kKm && method != AssignMethod::kPpi &&
        method != AssignMethod::kGgpso) {
      return predictors;
    }
    for (size_t w = 0; w < predictors.size(); ++w) {
      predictors[w].params = &offline.models.worker_params[w];
      predictors[w].matching_rate = offline.eval.per_worker[w].matching_rate;
    }
    return predictors;
  }

  /// The online stage the library runs (TampPipeline::RunOnline on the
  /// event engine) reproduces the batch-synchronous reference loop's
  /// SimMetrics bitwise, for every assignment method, at 1 and 4 threads.
  static void ExpectReferenceParity(const data::Workload& workload,
                                    const OfflineResult& offline) {
    TampPipeline pipeline(ParityPipeline());
    nn::EncoderDecoder model(pipeline.config().trainer.model);
    for (int threads : {1, 4}) {
      ThreadCountGuard guard(threads);
      for (AssignMethod method : AllAssignMethods()) {
        SimMetrics event = pipeline.RunOnline(workload, offline, method);
        ReferenceRun reference = RunBatchReference(
            workload, pipeline.config().sim, model, method,
            PredictorsFor(method, workload, offline));
        ExpectBitwiseEqual(event, reference.metrics,
                           AssignMethodName(method).data());
      }
    }
  }

  static data::Workload* porto_;
  static OfflineResult* porto_offline_;
  static data::Workload* gowalla_;
  static OfflineResult* gowalla_offline_;
};

data::Workload* EventBatchParityTest::porto_ = nullptr;
OfflineResult* EventBatchParityTest::porto_offline_ = nullptr;
data::Workload* EventBatchParityTest::gowalla_ = nullptr;
OfflineResult* EventBatchParityTest::gowalla_offline_ = nullptr;

TEST_F(EventBatchParityTest, PortoBitwiseParity) {
  ExpectReferenceParity(*porto_, *porto_offline_);
}

TEST_F(EventBatchParityTest, GowallaBitwiseParity) {
  ExpectReferenceParity(*gowalla_, *gowalla_offline_);
}

TEST_F(EventBatchParityTest, EventOrderIdenticalAcrossThreadCounts) {
  // The determinism contract: the drained event sequence — not just the
  // final metrics — is identical at any thread count, with a predicting
  // method so the fleet forecast fan-out actually runs in parallel.
  const PipelineConfig config = ParityPipeline();
  nn::EncoderDecoder model(porto_offline_->models.model_config);
  const std::vector<WorkerPredictor> predictors =
      PredictorsFor(AssignMethod::kKm, *porto_, *porto_offline_);

  std::vector<SimEvent> reference;
  SimMetrics reference_metrics;
  for (int threads : {1, 2, 4, 8}) {
    ThreadCountGuard guard(threads);
    BatchAssignStep step(*porto_, model, config.sim);
    EventSimulator sim(*porto_, config.sim, step);
    std::vector<SimEvent> trace;
    sim.set_event_trace(&trace);
    sim.ScheduleBatchTriggers();
    SimMetrics metrics = sim.Run(AssignMethod::kKm, predictors);
    if (threads == 1) {
      reference = trace;
      reference_metrics = metrics;
      EXPECT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(trace, reference) << threads << " threads";
      ExpectBitwiseEqual(metrics, reference_metrics, "threads");
    }
  }
}

TEST_F(EventBatchParityTest, ForecastCountsAndOutcomesThreadInvariant) {
  // A KM replay of the trained Porto day at 1, 2, 4 and 8 threads: the
  // fine-tuned fleet forecasts as 1-column tiles, so every trigger's
  // forecast region really fans out. Outcomes, event counts and the
  // forecast work counters must not depend on the thread count.
  const PipelineConfig config = ParityPipeline();
  nn::EncoderDecoder model(porto_offline_->models.model_config);
  const std::vector<WorkerPredictor> predictors =
      PredictorsFor(AssignMethod::kKm, *porto_, *porto_offline_);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& cells = registry.GetCounter("nn.forecast_cells");
  obs::Counter& gemm = registry.GetCounter("nn.batched_gemm_calls");
  obs::Counter& rows = registry.GetCounter("nn.batch_rows");

  struct Replay {
    SimMetrics metrics;
    EventStats stats;
    int64_t cells = 0, gemm = 0, rows = 0;
  };
  std::vector<Replay> replays;
  for (int threads : {1, 2, 4, 8}) {
    ThreadCountGuard guard(threads);
    BatchAssignStep step(*porto_, model, config.sim);
    EventSimulator sim(*porto_, config.sim, step);
    sim.ScheduleBatchTriggers();
    const int64_t c0 = cells.value();
    const int64_t g0 = gemm.value();
    const int64_t r0 = rows.value();
    Replay replay;
    replay.metrics = sim.Run(AssignMethod::kKm, predictors);
    replay.stats = sim.stats();
    replay.cells = cells.value() - c0;
    replay.gemm = gemm.value() - g0;
    replay.rows = rows.value() - r0;
    replays.push_back(replay);
  }

  const Replay& serial = replays.front();
  EXPECT_GT(serial.metrics.assignments, 0);
  EXPECT_GT(serial.cells, 0);
  for (size_t i = 1; i < replays.size(); ++i) {
    const Replay& r = replays[i];
    ExpectBitwiseEqual(r.metrics, serial.metrics, "threads");
    EXPECT_EQ(r.stats.events, serial.stats.events) << i;
    EXPECT_EQ(r.stats.task_arrivals, serial.stats.task_arrivals) << i;
    EXPECT_EQ(r.stats.task_expiries, serial.stats.task_expiries) << i;
    EXPECT_EQ(r.stats.worker_logins, serial.stats.worker_logins) << i;
    EXPECT_EQ(r.stats.worker_completions, serial.stats.worker_completions)
        << i;
    EXPECT_EQ(r.stats.assign_triggers, serial.stats.assign_triggers) << i;
    EXPECT_EQ(r.stats.worker_logouts, serial.stats.worker_logouts) << i;
    EXPECT_EQ(r.stats.dropouts, serial.stats.dropouts) << i;
    EXPECT_EQ(r.cells, serial.cells) << i;
    EXPECT_EQ(r.gemm, serial.gemm) << i;
    EXPECT_EQ(r.rows, serial.rows) << i;
  }
}

TEST_F(EventBatchParityTest, ChurnScenarioRunsAndDropsTasks) {
  // End-to-end smoke of the dynamic-availability path on a generated
  // churn workload: sessions gate assignments, dropouts are recorded, and
  // the accounting identity completed == accepted - dropouts holds.
  data::WorkloadConfig config = ParityWorkload(data::WorkloadKind::kPortoDidi);
  config.scenario = data::WorkloadScenario::kChurn;
  config.churn.dropout_prob = 0.5;
  data::Workload workload = data::GenerateWorkload(config);
  EXPECT_GT(workload.dropout.prob, 0.0);

  SimulatorConfig sim_config;
  EventRun run =
      RunEventHorizon(workload, sim_config, AssignMethod::kLowerBound);
  EXPECT_GT(run.metrics.accepted, 0);
  EXPECT_GT(run.metrics.dropouts, 0);
  EXPECT_EQ(run.metrics.completed,
            run.metrics.accepted - run.metrics.dropouts);
  // Churn splits each worker's window into several sessions.
  EXPECT_GT(run.stats.worker_logins,
            static_cast<int64_t>(workload.workers.size()));
  EXPECT_EQ(run.stats.worker_logins, run.stats.worker_logouts);
}

}  // namespace
}  // namespace tamp::core
