// Tests of the core::RunOptions façade: Validate() field checks, the
// shared --name=value flag surface, and the AssignMethod / WorkloadKind
// name round-trips every entry point leans on.
#include "core/run_options.h"

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

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
  {
    core::RunOptions o;
    o.threads = -1;
    EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
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
        {&o.sim.ppi.match_radius_km, "sim.ppi.match_radius_km"},
        {&o.sim.ppi.weight_floor_km, "sim.ppi.weight_floor_km"},
        {&o.sim.ggpso.crossover_rate, "sim.ggpso.crossover_rate"},
        {&o.sim.ggpso.mutation_rate, "sim.ggpso.mutation_rate"},
        {&o.sim.ggpso.cost_weight, "sim.ggpso.cost_weight"},
        {&o.sim.ggpso.match_radius_km, "sim.ggpso.match_radius_km"},
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

TEST(ModeEnumTest, CandidateModeRoundTripsThroughFlag) {
  // Name -> --candidates=<name> -> ParseRunFlags -> same enum, for every
  // mode: the flag surface and the enum table can never drift apart.
  for (core::CandidateMode mode : core::AllCandidateModes()) {
    const std::string name(core::CandidateModeName(mode));
    core::RunOptions options;
    ASSERT_TRUE(Parse({"--candidates=" + name}, &options).ok()) << name;
    EXPECT_EQ(options.sim.candidate_mode, mode) << name;
    StatusOr<core::CandidateMode> parsed = core::ParseCandidateMode(name);
    ASSERT_TRUE(parsed.ok()) << name;
    EXPECT_EQ(*parsed, mode) << name;
  }
  core::RunOptions options;
  Status bad = Parse({"--candidates=psychic"}, &options);
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("--candidates"), std::string::npos);
}

TEST(ModeEnumTest, ParseIsCaseInsensitive) {
  StatusOr<core::CandidateMode> candidates =
      core::ParseCandidateMode("Incremental");
  ASSERT_TRUE(candidates.ok());
  EXPECT_EQ(*candidates, core::CandidateMode::kIncremental);
}

TEST(ModeEnumTest, RetiredModesAreRejected) {
  // The dense candidate sweep, the scalar forecast, the batch-replay
  // engine and the global solve are test oracles, not run modes.
  core::RunOptions options;
  Status dense = Parse({"--candidates=dense"}, &options);
  EXPECT_EQ(dense.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dense.message().find("indexed, incremental"), std::string::npos)
      << dense.message();
  for (const char* flag :
       {"--forecast=scalar", "--engine=batch", "--sharding=off"}) {
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
