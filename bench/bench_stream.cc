// Headline bench of the event-driven simulator core (DESIGN.md §4j):
// replays every (dataset, scenario) workload spec — baseline, surge, and
// churn on Porto and Gowalla — through the event queue with the
// prediction-free LB assigner and reports events/second under load plus
// the deterministic event accounting the bench gate pins.
//
// Methodology: events/second = (total events drained) / (wall-clock of the
// full Run), so the figure prices the whole loop — heap pops, pool and
// session bookkeeping, and the per-trigger assignment work — not just the
// queue. LB keeps the run training-free, so the bench measures the
// simulator, and every reported *count* is a pure function of the workload
// seed (gated against bench/baselines/BENCH_stream.json; the rates and
// seconds are advisory).
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/event_sim.h"
#include "nn/encoder_decoder.h"

namespace tamp::bench {
namespace {

struct StreamResult {
  core::EventStats stats;
  core::SimMetrics metrics;
  double seconds = 0.0;
};

StreamResult RunSpec(const data::WorkloadSpec& spec,
                     const core::RunOptions& options) {
  BenchScale scale;
  data::WorkloadConfig workload_config = BaseWorkloadConfig(spec.kind, scale);
  workload_config.scenario = spec.scenario;
  data::Workload workload = data::GenerateWorkload(workload_config);

  nn::Seq2SeqConfig model_config;
  model_config.input_dim = data::kSampleInputDim;
  nn::EncoderDecoder model(model_config);  // LB never consults it.
  core::BatchAssignStep step(workload, model, options.sim);
  core::EventSimulator sim(workload, options.sim, step);
  sim.ScheduleBatchTriggers();
  std::vector<core::WorkerPredictor> predictors(workload.workers.size());

  StreamResult result;
  Stopwatch watch;
  result.metrics = sim.Run(core::AssignMethod::kLowerBound, predictors);
  result.seconds = watch.ElapsedSeconds();
  result.stats = sim.stats();
  return result;
}

int StreamBenchMain(int argc, char** argv) {
  core::RunOptions options;
  BenchScale scale;
  options.sim = BasePipelineConfig(scale).sim;
  Status status = core::ParseRunFlags(argc, argv, &options);
  if (status.code() == StatusCode::kFailedPrecondition) {
    std::cout << "stream: events/second of the event-driven simulator core"
                 " over every workload spec\n\nflags:\n"
              << status.message();
    return 0;
  }
  if (status.ok()) status = options.Validate();
  if (!status.ok()) {
    std::cerr << "stream: " << status.ToString() << "\n";
    return 1;
  }
  core::ApplyRunOptions(options);
  {
    JsonReport report("stream", options.sinks.bench_json_dir);
    // The gated numbers are the explicit per-spec counts below; the obs
    // registry would only add the same counters accumulated across specs.
    report.IncludeObs(false);
    std::cout << "=== Event-driven simulator throughput (events/second) ==="
              << "\n";
    TablePrinter table({"workload", "events", "triggers", "arrivals",
                        "dropouts", "completed", "events/s"});
    for (const data::WorkloadSpec& spec : data::AllWorkloadSpecs()) {
      const std::string name = data::WorkloadSpecName(spec);
      StreamResult r = RunSpec(spec, options);
      const double events_per_s =
          r.seconds > 0.0 ? static_cast<double>(r.stats.events) / r.seconds
                          : 0.0;
      // Deterministic accounting (gated bitwise by tools/check.sh).
      report.AddMetric(name + ".events", static_cast<double>(r.stats.events));
      report.AddMetric(name + ".task_arrivals",
                       static_cast<double>(r.stats.task_arrivals));
      report.AddMetric(name + ".task_expiries",
                       static_cast<double>(r.stats.task_expiries));
      report.AddMetric(name + ".worker_logins",
                       static_cast<double>(r.stats.worker_logins));
      report.AddMetric(name + ".worker_completions",
                       static_cast<double>(r.stats.worker_completions));
      report.AddMetric(name + ".assign_triggers",
                       static_cast<double>(r.stats.assign_triggers));
      report.AddMetric(name + ".worker_logouts",
                       static_cast<double>(r.stats.worker_logouts));
      report.AddMetric(name + ".dropouts",
                       static_cast<double>(r.stats.dropouts));
      report.AddMetric(name + ".accepted",
                       static_cast<double>(r.metrics.accepted));
      report.AddMetric(name + ".completed",
                       static_cast<double>(r.metrics.completed));
      // Advisory (machine-dependent): the throughput and the wall-clock.
      report.AddMetric(name + ".events_per_s", events_per_s);
      report.AddStage(name + "_s", r.seconds);
      table.AddRow({name, Fmt(r.stats.events), Fmt(r.stats.assign_triggers),
                    Fmt(r.stats.task_arrivals), Fmt(r.stats.dropouts),
                    Fmt(static_cast<int64_t>(r.metrics.completed)),
                    Fmt(events_per_s, 0)});
    }
    table.Print(std::cout);
    std::cout << "\nCSV:\n";
    table.PrintCsv(std::cout);
  }
  status = core::WriteRunArtifacts(options);
  if (!status.ok()) {
    std::cerr << "stream: " << status.ToString() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace tamp::bench

int main(int argc, char** argv) {
  return tamp::bench::StreamBenchMain(argc, argv);
}
