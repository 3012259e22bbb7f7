// The fuzzer's acceptance demonstration: arm a deliberate accounting bug
// (the fused sparse fold drops the CPU part column — exactly the kind of
// one-column slip a metering refactor could make), and prove the oracle
// catches it within a bounded seed budget, auto-shrinks the failing
// program to a minimal replayable reproducer, and goes quiet the moment
// the bug is fixed.
#include <gtest/gtest.h>

#include <string>

#include "energy/pipeline.h"
#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "fuzz/shrink.h"

namespace eandroid::fuzz {
namespace {

/// Restores the disarmed seam even when an assertion bails out early.
class ScopedSkipPart {
 public:
  explicit ScopedSkipPart(int part) {
    energy::MeteringPipeline::set_test_skip_part(part);
  }
  ~ScopedSkipPart() { energy::MeteringPipeline::set_test_skip_part(-1); }
};

TEST(InjectedBugTest, FusedFoldBugIsCaughtShrunkAndReplayable) {
  // Single-device legs only: the injected bug lives in the metering fold,
  // so the per-step invariant leg is the one that must catch it (the
  // engine's total stops matching the battery drain), and the fleet legs
  // would only slow the hunt down.
  OracleOptions oracle_options;
  oracle_options.fleet_legs = false;
  GeneratorOptions gen;
  gen.min_steps = 6;
  gen.max_steps = 12;

  ScenarioProgram failing;
  OracleVerdict first_verdict;
  {
    const ScopedSkipPart armed(0);  // drop the CPU column in the fused fold

    // Bounded seed budget: the bug must surface within 8 seeds (any
    // program that charges app CPU trips it; some seeds touch only
    // global ops and sail through, which is why this is a budget).
    bool caught = false;
    for (std::uint64_t seed = 1; seed <= 8 && !caught; ++seed) {
      gen.seed = seed;
      const ScenarioProgram program = generate(gen);
      const OracleVerdict verdict = run_oracle(program, oracle_options);
      if (!verdict.ok()) {
        caught = true;
        failing = program;
        first_verdict = verdict;
      }
    }
    ASSERT_TRUE(caught) << "injected bug survived the 8-seed budget";
    EXPECT_FALSE(first_verdict.invariant_violations.empty())
        << first_verdict.to_string();

    // Auto-shrink while the bug is live.
    ShrinkStats stats;
    ShrinkOptions shrink_options;
    shrink_options.max_candidates = 150;
    const ScenarioProgram shrunk = shrink(
        failing,
        [&oracle_options](const ScenarioProgram& candidate) {
          return !run_oracle(candidate, oracle_options).ok();
        },
        &stats, shrink_options);

    // Minimal: the smallest CPU-running program is a step or two.
    EXPECT_TRUE(validate(shrunk));
    EXPECT_LE(shrunk.steps.size(), 2u)
        << "shrink stalled at " << shrunk.steps.size() << " steps";
    EXPECT_LT(stats.final_steps, stats.initial_steps);

    // The reproducer replays from its serialized form alone.
    ScenarioProgram replayed;
    std::string error;
    ASSERT_TRUE(ScenarioProgram::parse(shrunk.serialize(), &replayed, &error))
        << error;
    EXPECT_FALSE(run_oracle(replayed, oracle_options).ok());
    failing = replayed;
  }

  // Bug fixed (seam disarmed): the very same reproducer goes green.
  EXPECT_TRUE(run_oracle(failing, oracle_options).ok());
}

TEST(InjectedBugTest, InvariantLegAlsoFlagsTheBrokenConservation) {
  // Dropping a part column breaks energy conservation: the engine's
  // total no longer matches the battery's drain, which the per-step
  // InvariantChecker leg reports — on a hand-written program that is
  // guaranteed to charge app CPU, not just on a generated one.
  const ScopedSkipPart armed(0);
  // A program guaranteed to charge app CPU (a generated one might only
  // touch global ops, leaving the zeroed column empty anyway): launch the
  // victim and run a foreground burst.
  ScenarioProgram program;
  program.seed = 1;
  Step launch;
  launch.at_us = 100'001;
  launch.op = OpKind::kUserLaunch;
  Step burst;
  burst.at_us = 600'003;
  burst.op = OpKind::kCpuBurst;
  burst.a = 400;
  program.steps = {launch, burst};
  program.horizon_us = 3'000'000;
  ASSERT_TRUE(validate(program));
  OracleOptions oracle_options;
  oracle_options.fleet_legs = false;
  const OracleVerdict verdict = run_oracle(program, oracle_options);
  EXPECT_FALSE(verdict.invariant_violations.empty());
}

}  // namespace
}  // namespace eandroid::fuzz
