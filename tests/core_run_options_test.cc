// Tests of the core::RunOptions façade: Validate() field checks, the
// shared --name=value flag surface, and the AssignMethod / WorkloadKind
// name round-trips every entry point leans on.
#include "core/run_options.h"

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "data/workload.h"

namespace tamp {
namespace {

/// Builds an argv for ParseRunFlags ("prog" + the given flags).
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    storage_.insert(storage_.begin(), "prog");
    for (std::string& s : storage_) ptrs_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> ptrs_;
};

Status Parse(std::vector<std::string> args, core::RunOptions* options) {
  Argv argv(std::move(args));
  return core::ParseRunFlags(argv.argc(), argv.argv(), options);
}

TEST(RunOptionsValidateTest, DefaultsAreValid) {
  core::RunOptions options;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(RunOptionsValidateTest, RejectsOutOfRangeFields) {
  // --threads parses over [0, INT_MAX]; Validate() bounds it by
  // kMaxParallelThreads, so no parsed count can reach the pool.
  for (int threads : {-1, kMaxParallelThreads + 1,
                      std::numeric_limits<int>::max()}) {
    core::RunOptions o;
    o.threads = threads;
    Status s = o.Validate();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << threads;
    EXPECT_NE(s.message().find("--threads"), std::string::npos);
  }
  {
    core::RunOptions o;
    o.threads = kMaxParallelThreads;
    EXPECT_TRUE(o.Validate().ok());
  }
  {
    core::RunOptions o;
    o.sim.prediction_horizon_steps = 0;
    Status s = o.Validate();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find("horizon"), std::string::npos);
  }
  {
    core::RunOptions o;
    o.sim.match_radius_km = 0.0;
    EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  }
  {
    core::RunOptions o;
    o.sim.ppi.epsilon = 0;
    EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  }
  {
    core::RunOptions o;
    o.sim.ggpso.crossover_rate = 1.5;
    EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  }
  // Non-finite values: NaN slips past every `<` range check and +inf past
  // every `> 0` one, so each floating-point field is checked for
  // finiteness by name.
  const auto float_fields = [](core::RunOptions& o) {
    return std::vector<std::pair<double*, std::string>>{
        {&o.sim.batch_window_min, "sim.batch_window_min"},
        {&o.sim.sample_period_min, "sim.sample_period_min"},
        {&o.sim.match_radius_km, "sim.match_radius_km"},
        {&o.sim.service_time_min, "sim.service_time_min"},
        {&o.sim.ppi.weight_floor_km, "sim.ppi.weight_floor_km"},
        {&o.sim.ggpso.crossover_rate, "sim.ggpso.crossover_rate"},
        {&o.sim.ggpso.mutation_rate, "sim.ggpso.mutation_rate"},
        {&o.sim.ggpso.cost_weight, "sim.ggpso.cost_weight"},
    };
  };
  core::RunOptions probe;
  const size_t num_fields = float_fields(probe).size();
  for (size_t i = 0; i < num_fields; ++i) {
    for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity()}) {
      core::RunOptions o;
      const auto [field, name] = float_fields(o)[i];
      *field = bad;
      Status s = o.Validate();
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << name << " = " << bad;
      EXPECT_NE(s.message().find(name), std::string::npos) << s.message();
    }
  }
}

TEST(RunOptionsValidateTest, RejectsDuplicateMethods) {
  core::RunOptions options;
  options.methods = {core::AssignMethod::kKm, core::AssignMethod::kPpi,
                     core::AssignMethod::kKm};
  Status s = options.Validate();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("KM"), std::string::npos);
}

TEST(ParseRunFlagsTest, HelpIsFailedPreconditionWithHelpText) {
  core::RunOptions options;
  Status s = Parse({"--help"}, &options);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(s.message(), core::RunFlagsHelp());
}

TEST(ParseRunFlagsTest, ParsesEveryFlag) {
  core::RunOptions options;
  ASSERT_TRUE(Parse({"--dataset=gowalla", "--seed=42", "--threads=3",
                     "--horizon=6", "--methods=KM,PPI",
                     "--json-dir=/tmp/out", "--trace=t.json",
                     "--metrics=m.json"},
                    &options)
                  .ok());
  EXPECT_EQ(options.workload.kind, data::WorkloadKind::kGowallaFoursquare);
  EXPECT_EQ(options.seed, 42u);
  EXPECT_EQ(options.threads, 3);
  EXPECT_EQ(options.sim.prediction_horizon_steps, 6);
  ASSERT_EQ(options.methods.size(), 2u);
  EXPECT_EQ(options.methods[0], core::AssignMethod::kKm);
  EXPECT_EQ(options.methods[1], core::AssignMethod::kPpi);
  EXPECT_EQ(options.sinks.bench_json_dir, "/tmp/out");
  EXPECT_EQ(options.sinks.trace_path, "t.json");
  EXPECT_EQ(options.sinks.metrics_path, "m.json");
}

TEST(ParseRunFlagsTest, LeavesCallerDefaultsAlone) {
  core::RunOptions options;
  options.seed = 99;
  options.sim.prediction_horizon_steps = 4;
  ASSERT_TRUE(Parse({"--threads=2"}, &options).ok());
  EXPECT_EQ(options.seed, 99u);
  EXPECT_EQ(options.sim.prediction_horizon_steps, 4);
  EXPECT_EQ(options.threads, 2);
}

TEST(ParseRunFlagsTest, RejectsMalformedInput) {
  core::RunOptions options;
  EXPECT_EQ(Parse({"--bogus=1"}, &options).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Parse({"positional"}, &options).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Parse({"--seed=abc"}, &options).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Parse({"--seed=-5"}, &options).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Parse({"--dataset=mars"}, &options).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Parse({"--methods=KM,WARP"}, &options).code(),
            StatusCode::kInvalidArgument);
  // An integer that does not fit its field is rejected by flag name, never
  // wrapped (2^32 + 1 into an int) or clamped (2^64 and up for --seed).
  for (const std::string arg :
       {"--threads=4294967297", "--threads=2147483648",
        "--horizon=4294967297", "--horizon=2147483648",
        "--seed=18446744073709551616", "--seed=99999999999999999999",
        "--seed=+5", "--seed= 5", "--seed="}) {
    core::RunOptions fresh;
    Status s = Parse({arg}, &fresh);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << arg;
    const std::string flag = arg.substr(0, arg.find('='));
    EXPECT_NE(s.message().find(flag), std::string::npos) << s.message();
  }
  // The edges of each range still parse, exactly.
  core::RunOptions edges;
  ASSERT_TRUE(Parse({"--seed=18446744073709551615", "--threads=2147483647",
                     "--horizon=2147483647"},
                    &edges)
                  .ok());
  EXPECT_EQ(edges.seed, std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(edges.threads, std::numeric_limits<int>::max());
  EXPECT_EQ(edges.sim.prediction_horizon_steps,
            std::numeric_limits<int>::max());
}

TEST(AssignMethodNameTest, RoundTripsThroughParse) {
  for (core::AssignMethod method : core::AllAssignMethods()) {
    const std::string_view name = core::AssignMethodName(method);
    StatusOr<core::AssignMethod> parsed = core::ParseAssignMethod(name);
    ASSERT_TRUE(parsed.ok()) << name;
    EXPECT_EQ(*parsed, method) << name;
  }
}

TEST(AssignMethodNameTest, ParseIsCaseInsensitive) {
  StatusOr<core::AssignMethod> parsed = core::ParseAssignMethod("ppi");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, core::AssignMethod::kPpi);
}

TEST(AssignMethodNameTest, ParseRejectsUnknownListingAccepted) {
  StatusOr<core::AssignMethod> parsed = core::ParseAssignMethod("WARP");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("GGPSO"), std::string::npos);
}

TEST(WorkloadKindNameTest, RoundTripsAndAcceptsLongForms) {
  for (data::WorkloadKind kind : {data::WorkloadKind::kPortoDidi,
                                  data::WorkloadKind::kGowallaFoursquare}) {
    StatusOr<data::WorkloadKind> parsed =
        data::ParseWorkloadKind(data::WorkloadKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  StatusOr<data::WorkloadKind> long_form =
      data::ParseWorkloadKind("gowalla_foursquare");
  ASSERT_TRUE(long_form.ok());
  EXPECT_EQ(*long_form, data::WorkloadKind::kGowallaFoursquare);
  EXPECT_FALSE(data::ParseWorkloadKind("mars").ok());
}

TEST(ModeEnumTest, RetiredModesAreRejected) {
  // The dense candidate sweep, the scalar forecast, the batch-replay
  // engine and the global solve are test oracles, not run modes; the
  // incremental candidate engine is gone, and with it --candidates.
  core::RunOptions options;
  for (const char* flag :
       {"--candidates=indexed", "--candidates=incremental",
        "--forecast=scalar", "--engine=batch", "--sharding=off"}) {
    Status s = Parse({flag}, &options);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << flag;
    EXPECT_NE(s.message().find("unknown flag"), std::string::npos) << flag;
  }
}

TEST(WorkloadSpecTest, RoundTripsThroughFlag) {
  for (const data::WorkloadSpec& spec : data::AllWorkloadSpecs()) {
    const std::string name = data::WorkloadSpecName(spec);
    core::RunOptions options;
    ASSERT_TRUE(Parse({"--workload=" + name}, &options).ok()) << name;
    EXPECT_EQ(options.workload, spec) << name;
    StatusOr<data::WorkloadSpec> parsed = data::ParseWorkloadSpec(name);
    ASSERT_TRUE(parsed.ok()) << name;
    EXPECT_EQ(*parsed, spec) << name;
  }
}

TEST(WorkloadSpecTest, BareDatasetMeansBaselineAndDatasetOnlySetsKind) {
  core::RunOptions options;
  ASSERT_TRUE(Parse({"--workload=gowalla"}, &options).ok());
  EXPECT_EQ(options.workload.kind, data::WorkloadKind::kGowallaFoursquare);
  EXPECT_EQ(options.workload.scenario, data::WorkloadScenario::kBaseline);
  // --dataset after --workload only swaps the kind, keeping the scenario.
  core::RunOptions churned;
  ASSERT_TRUE(
      Parse({"--workload=porto_churn", "--dataset=gowalla"}, &churned).ok());
  EXPECT_EQ(churned.workload.kind, data::WorkloadKind::kGowallaFoursquare);
  EXPECT_EQ(churned.workload.scenario, data::WorkloadScenario::kChurn);
  Status bad = Parse({"--workload=porto_monsoon"}, &options);
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("--workload"), std::string::npos);
}

TEST(EffectiveMethodsTest, EmptyMeansAll) {
  core::RunOptions options;
  EXPECT_EQ(core::EffectiveMethods(options), core::AllAssignMethods());
  options.methods = {core::AssignMethod::kUpperBound};
  ASSERT_EQ(core::EffectiveMethods(options).size(), 1u);
  EXPECT_EQ(core::EffectiveMethods(options)[0],
            core::AssignMethod::kUpperBound);
}

}  // namespace
}  // namespace tamp
