// Oracle contracts: a healthy tree passes every leg, the verdict's
// bookkeeping (steps applied, per-leg timings) is filled in, executors
// replay the same program identically on single devices and fleets, and
// the oracle refuses ungrammatical input.
#include <gtest/gtest.h>

#include <algorithm>

#include "fuzz/executor.h"
#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "sim/check.h"

namespace eandroid::fuzz {
namespace {

TEST(OracleTest, HealthyTreePassesEveryLeg) {
  GeneratorOptions options;
  options.seed = 42;
  options.min_steps = 10;
  options.max_steps = 20;
  const ScenarioProgram program = generate(options);
  const OracleVerdict verdict = run_oracle(program);
  EXPECT_TRUE(verdict.ok()) << verdict.to_string();
  EXPECT_EQ(verdict.steps_applied, program.steps.size());

  // Every enabled leg reports a timing entry.
  const char* const expected[] = {"single.reference", "single.determinism",
                                  "single.invariants", "fleet.reference",
                                  "fleet.parallel"};
  for (const char* leg : expected) {
    EXPECT_TRUE(std::any_of(verdict.timings.begin(), verdict.timings.end(),
                            [leg](const LegTiming& t) { return t.leg == leg; }))
        << "missing timing for " << leg;
  }
}

TEST(OracleTest, SingleLegsAloneAreCheaperAndStillPass) {
  GeneratorOptions gen;
  gen.seed = 1301;
  gen.min_steps = 6;
  gen.max_steps = 12;
  OracleOptions options;
  options.fleet_legs = false;
  const OracleVerdict verdict = run_oracle(generate(gen), options);
  EXPECT_TRUE(verdict.ok()) << verdict.to_string();
  for (const LegTiming& t : verdict.timings) {
    EXPECT_EQ(t.leg.rfind("single.", 0), 0u) << t.leg;
  }
}

TEST(OracleTest, ExecutorAppliesEveryStepAndStaysInvariantClean) {
  GeneratorOptions gen;
  gen.seed = 7;
  const ScenarioProgram program = generate(gen);
  fleet::DeviceSpec spec;
  spec.seed = program.seed;
  fleet::DeviceContext bed(spec);
  install_cast(bed);
  bed.start();
  ProgramExecutor::Options exec_options;
  exec_options.check_invariants_each_step = true;
  ProgramExecutor executor(bed, program, exec_options);
  executor.run();
  EXPECT_EQ(executor.steps_applied(), program.steps.size());
  EXPECT_TRUE(executor.violations().empty())
      << executor.violations().front();
}

TEST(OracleTest, RejectsUngrammaticalInput) {
  ScenarioProgram bogus;
  bogus.horizon_us = 1'000'000;
  Step unbind;
  unbind.at_us = 500'000;
  unbind.op = OpKind::kUnbindService;
  bogus.steps.push_back(unbind);
  EXPECT_THROW(run_oracle(bogus), sim::CheckFailure);
}

}  // namespace
}  // namespace eandroid::fuzz
