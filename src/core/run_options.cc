#include "core/run_options.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <set>
#include <system_error>
#include <utility>

#include "common/obs/metrics.h"
#include "common/obs/trace.h"
#include "common/parallel.h"

namespace tamp::core {

namespace {

Status CheckFinite(double v, const char* field) {
  if (std::isfinite(v)) return Status::Ok();
  return Status::InvalidArgument(std::string(field) + " must be finite, got " +
                                 std::to_string(v));
}

Status CheckPositive(double v, const char* field) {
  if (v > 0.0) return Status::Ok();
  return Status::InvalidArgument(std::string(field) + " must be > 0");
}

Status CheckFraction(double v, const char* field) {
  if (v >= 0.0 && v <= 1.0) return Status::Ok();
  return Status::InvalidArgument(std::string(field) + " must be in [0, 1]");
}

/// Parses a decimal flag value in [0, max]; InvalidArgument naming the
/// flag on junk (signs and whitespace included) or on a value that does
/// not fit, never a silent wrap or clamp.
Status ParseUint(const std::string& value, const std::string& flag,
                 uint64_t max, uint64_t* out) {
  const char* last = value.data() + value.size();
  uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(value.data(), last, v);
  if (ec == std::errc::invalid_argument || ptr != last) {
    return Status::InvalidArgument(flag + " expects a non-negative integer, "
                                   "got '" + value + "'");
  }
  if (ec == std::errc::result_out_of_range || v > max) {
    return Status::InvalidArgument(flag + " is out of range [0, " +
                                   std::to_string(max) + "], got '" + value +
                                   "'");
  }
  *out = v;
  return Status::Ok();
}

/// ParseUint into an int destination.
Status ParseIntFlag(const std::string& value, const std::string& flag,
                    int* out) {
  uint64_t v = 0;
  TAMP_RETURN_IF_ERROR(
      ParseUint(value, flag, std::numeric_limits<int>::max(), &v));
  *out = static_cast<int>(v);
  return Status::Ok();
}

}  // namespace

Status RunOptions::Validate() const {
  if (threads < 0 || threads > kMaxParallelThreads) {
    return Status::InvalidArgument(
        "threads (--threads) must be in [0, " +
        std::to_string(kMaxParallelThreads) + "] (0 = default), got " +
        std::to_string(threads));
  }
  // Every floating-point field first: NaN passes every `<` range check
  // below, and +inf passes the `> 0` ones.
  const std::pair<double, const char*> kFloatFields[] = {
      {sim.batch_window_min, "sim.batch_window_min"},
      {sim.sample_period_min, "sim.sample_period_min"},
      {sim.match_radius_km, "sim.match_radius_km"},
      {sim.service_time_min, "sim.service_time_min"},
      {sim.ppi.weight_floor_km, "sim.ppi.weight_floor_km"},
      {sim.ggpso.crossover_rate, "sim.ggpso.crossover_rate"},
      {sim.ggpso.mutation_rate, "sim.ggpso.mutation_rate"},
      {sim.ggpso.cost_weight, "sim.ggpso.cost_weight"},
  };
  for (const auto& [value, field] : kFloatFields) {
    TAMP_RETURN_IF_ERROR(CheckFinite(value, field));
  }
  TAMP_RETURN_IF_ERROR(CheckPositive(sim.batch_window_min,
                                     "sim.batch_window_min"));
  TAMP_RETURN_IF_ERROR(CheckPositive(sim.sample_period_min,
                                     "sim.sample_period_min"));
  if (sim.prediction_horizon_steps < 1) {
    return Status::InvalidArgument(
        "sim.prediction_horizon_steps (--horizon) must be >= 1");
  }
  TAMP_RETURN_IF_ERROR(CheckPositive(sim.match_radius_km,
                                     "sim.match_radius_km"));
  if (sim.service_time_min < 0.0) {
    return Status::InvalidArgument("sim.service_time_min must be >= 0");
  }
  if (sim.ppi.epsilon < 1) {
    return Status::InvalidArgument("sim.ppi.epsilon must be >= 1");
  }
  TAMP_RETURN_IF_ERROR(CheckPositive(sim.ppi.weight_floor_km,
                                     "sim.ppi.weight_floor_km"));
  if (sim.ggpso.population < 1) {
    return Status::InvalidArgument("sim.ggpso.population must be >= 1");
  }
  if (sim.ggpso.generations < 0) {
    return Status::InvalidArgument("sim.ggpso.generations must be >= 0");
  }
  TAMP_RETURN_IF_ERROR(CheckFraction(sim.ggpso.crossover_rate,
                                     "sim.ggpso.crossover_rate"));
  TAMP_RETURN_IF_ERROR(CheckFraction(sim.ggpso.mutation_rate,
                                     "sim.ggpso.mutation_rate"));
  std::set<AssignMethod> seen;
  for (AssignMethod method : methods) {
    if (!seen.insert(method).second) {
      return Status::InvalidArgument(
          "duplicate assignment method '" +
          std::string(AssignMethodName(method)) + "' in methods");
    }
  }
  return Status::Ok();
}

std::string RunFlagsHelp() {
  return
      "  --dataset=porto|gowalla  workload dataset pair\n"
      "  --workload=SPEC          dataset pair plus scenario: porto,\n"
      "                           porto_surge, porto_churn, gowalla,\n"
      "                           gowalla_surge, gowalla_churn\n"
      "  --seed=N                 workload seed (0 = dataset default)\n"
      "  --threads=N              parallel runtime threads (0 = default)\n"
      "  --horizon=N              forecast horizon steps per worker\n"
      "  --methods=A,B,...        assignment methods (UB,LB,KM,PPI,GGPSO;\n"
      "                           default all)\n"
      "  --json-dir=DIR           directory for the BENCH_<target>.json\n"
      "  --trace=PATH             write a Chrome trace_event timeline\n"
      "  --metrics=PATH           write a flat metrics-snapshot JSON\n"
      "  --help                   this text\n"
      "The online layers have one path each and no mode flags: candidate\n"
      "pruning through a per-batch spatial index (oracle: the dense sweep\n"
      "in assign_candidate_index_test), the batched fleet forecast\n"
      "(oracle: nn_batched_forecast_test), the event-queue simulator\n"
      "(oracle: core_event_sim_test) and the per-component KM solve\n"
      "(oracle: assign_sharding_test).\n";
}

Status ParseRunFlags(int argc, char** argv, RunOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      return Status::FailedPrecondition(RunFlagsHelp());
    }
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      return Status::InvalidArgument("unknown argument '" + arg +
                                     "' (flags take --name=value form)\n" +
                                     RunFlagsHelp());
    }
    const std::string flag = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    if (flag == "--dataset") {
      StatusOr<data::WorkloadKind> kind = data::ParseWorkloadKind(value);
      if (!kind.ok()) return kind.status();
      options->workload.kind = *kind;
    } else if (flag == "--workload") {
      StatusOr<data::WorkloadSpec> spec = data::ParseWorkloadSpec(value);
      if (!spec.ok()) {
        return Status::InvalidArgument(flag + ": " +
                                       std::string(spec.status().message()));
      }
      options->workload = *spec;
    } else if (flag == "--seed") {
      TAMP_RETURN_IF_ERROR(ParseUint(value, flag,
                                     std::numeric_limits<uint64_t>::max(),
                                     &options->seed));
    } else if (flag == "--threads") {
      TAMP_RETURN_IF_ERROR(ParseIntFlag(value, flag, &options->threads));
    } else if (flag == "--horizon") {
      TAMP_RETURN_IF_ERROR(ParseIntFlag(
          value, flag, &options->sim.prediction_horizon_steps));
    } else if (flag == "--methods") {
      options->methods.clear();
      std::size_t start = 0;
      while (start <= value.size()) {
        std::size_t comma = value.find(',', start);
        if (comma == std::string::npos) comma = value.size();
        StatusOr<AssignMethod> method =
            ParseAssignMethod(value.substr(start, comma - start));
        if (!method.ok()) return method.status();
        options->methods.push_back(*method);
        start = comma + 1;
      }
    } else if (flag == "--json-dir") {
      options->sinks.bench_json_dir = value;
    } else if (flag == "--trace") {
      options->sinks.trace_path = value;
    } else if (flag == "--metrics") {
      options->sinks.metrics_path = value;
    } else {
      return Status::InvalidArgument("unknown flag '" + flag + "'\n" +
                                     RunFlagsHelp());
    }
  }
  return Status::Ok();
}

void ApplyRunOptions(const RunOptions& options) {
  if (options.threads > 0) SetParallelThreadCount(options.threads);
  if (!options.sinks.trace_path.empty()) {
    obs::TraceRecorder::Global().Enable();
  }
}

Status WriteRunArtifacts(const RunOptions& options) {
  if (!options.sinks.trace_path.empty()) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    TAMP_RETURN_IF_ERROR(
        recorder.WriteChromeTrace(options.sinks.trace_path));
    std::cout << "Trace: " << options.sinks.trace_path << " ("
              << recorder.Snapshot().size() << " spans";
    if (recorder.dropped() > 0) {
      std::cout << ", " << recorder.dropped() << " dropped";
    }
    std::cout << ")\n";
  }
  if (!options.sinks.metrics_path.empty()) {
    TAMP_RETURN_IF_ERROR(obs::WriteStatsJson(options.sinks.metrics_path));
    std::cout << "Metrics: " << options.sinks.metrics_path << "\n";
  }
  return Status::Ok();
}

const std::vector<AssignMethod>& EffectiveMethods(const RunOptions& options) {
  return options.methods.empty() ? AllAssignMethods() : options.methods;
}

}  // namespace tamp::core
