#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "core/simulator.h"
#include "data/workload.h"

namespace tamp::core {

/// Where a run writes its machine-readable artifacts. Every sink is
/// optional; empty string = sink off (bench JSON falls back to the
/// TAMP_BENCH_JSON_DIR environment variable, then the working directory).
struct OutputSinks {
  /// Directory for the BENCH_<target>.json report a bench target writes.
  std::string bench_json_dir;
  /// Chrome trace_event timeline (--trace=out.json). Non-empty enables
  /// span recording for the whole run.
  std::string trace_path;
  /// Flat metrics-snapshot JSON (--metrics=out.json): the
  /// obs::MetricsRegistry snapshot plus per-span aggregates when tracing.
  std::string metrics_path;
};

/// The one façade every runnable entry point (bench mains, examples)
/// configures itself from, so adding a knob or an output sink touches this
/// struct and its parser — not ten mains.
///
/// Lifecycle: fill (or ParseRunFlags over argv), Validate(), then
/// ApplyRunOptions() once before the run and WriteRunArtifacts() after.
struct RunOptions {
  /// Which workload to generate: a dataset pair plus a scenario
  /// (baseline / surge / churn). --dataset selects the pair, keeping the
  /// scenario; --workload selects both at once ("porto_surge").
  data::WorkloadSpec workload;
  /// Workload seed; 0 = the dataset's calibrated default.
  uint64_t seed = 0;
  /// Assignment methods to run, in order. Empty = AllAssignMethods().
  std::vector<AssignMethod> methods;
  /// Online-stage settings, including the forecast horizon
  /// (sim.prediction_horizon_steps — the --horizon flag).
  SimulatorConfig sim;
  /// Worker threads for the deterministic parallel runtime; 0 = inherit
  /// TAMP_THREADS / hardware default.
  int threads = 0;
  OutputSinks sinks;

  /// Checks every field is in range (thread count in
  /// [0, kMaxParallelThreads], every floating-point field finite,
  /// simulator windows/radii positive, GGPSO rates in [0,1], no duplicate
  /// methods, ...). InvalidArgument with a field-naming message on the
  /// first violation.
  Status Validate() const;
};

/// One-line-per-flag help text for the flags ParseRunFlags understands.
std::string RunFlagsHelp();

/// Parses the shared command-line surface into `options` (which carries
/// the caller's defaults): --dataset=porto|gowalla,
/// --workload=porto|porto_surge|gowalla_churn|..., --seed=N, --threads=N,
/// --horizon=N, --methods=KM,PPI,..., --json-dir=DIR, --trace=PATH,
/// --metrics=PATH, --help. No flag selects an algorithm path: each online
/// layer has one (RunFlagsHelp() names their test oracles). The enum-valued
/// flags parse through the typed enums (ParseAssignMethod,
/// data::ParseWorkloadSpec) so flag strings and enum names cannot drift.
/// Unknown flags and malformed values are InvalidArgument, including an
/// integer that does not fit its field (--seed takes the full uint64_t
/// range; --threads and --horizon take [0, INT_MAX]); --help is a
/// kFailedPrecondition carrying RunFlagsHelp() so callers
/// print-and-exit-0.
Status ParseRunFlags(int argc, char** argv, RunOptions* options);

/// Applies the process-wide parts of a validated RunOptions: sets the
/// parallel thread count and enables trace recording when a trace sink is
/// configured. Call once, before the run.
void ApplyRunOptions(const RunOptions& options);

/// Writes the configured trace / metrics sinks (no-ops when empty). Call
/// once, after the run. Prints each written path to stdout.
Status WriteRunArtifacts(const RunOptions& options);

/// The methods a run executes: `methods` if non-empty, else all.
const std::vector<AssignMethod>& EffectiveMethods(const RunOptions& options);

}  // namespace tamp::core
