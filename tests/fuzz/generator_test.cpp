// Generator + program contracts: bitwise seed determinism, grammar
// validity of everything emitted, precondition discipline (no op on a
// dead uid, no unbind without a bind), exact serialization round-trips,
// and the repair() normalizer the shrinker depends on.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "fuzz/generator.h"
#include "fuzz/program.h"

namespace eandroid::fuzz {
namespace {

TEST(GeneratorTest, SameSeedIsBitwiseIdentical) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    GeneratorOptions options;
    options.seed = seed;
    const ScenarioProgram first = generate(options);
    const ScenarioProgram second = generate(options);
    EXPECT_EQ(first, second) << "seed " << seed;
    EXPECT_EQ(first.serialize(), second.serialize()) << "seed " << seed;
  }
}

std::string pinned(const std::string& name) {
  std::ifstream in(std::string(EANDROID_FUZZ_PINNED_DIR) + "/" + name);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(GeneratorTest, SeedOneIsPinned) {
  // Every soak, the property tests, the fleet chaos test and the
  // end-to-end fleet campaign run generated programs, so a grammar change
  // must show up here as a deliberate diff, not as a silent change of
  // workload. Two shapes: the defaults, and the end-to-end campaign's.
  EXPECT_EQ(generate({.seed = 1}).serialize(), pinned("seed1_defaults.prog"));
  EXPECT_EQ(generate({.seed = 1,
                      .min_steps = 30,
                      .max_steps = 30,
                      .min_gap_us = 10'000'001,
                      .max_gap_us = 70'000'003})
                .serialize(),
            pinned("seed1_e2e_fleet.prog"));
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  GeneratorOptions options;
  std::set<std::string> distinct;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    options.seed = seed;
    distinct.insert(generate(options).serialize());
  }
  // Not a tautology (two seeds COULD collide), but 32 collisions would
  // mean the seed never reaches the stream.
  EXPECT_GT(distinct.size(), 30u);
}

TEST(GeneratorTest, EveryEmittedProgramSatisfiesTheGrammar) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    GeneratorOptions options;
    options.seed = seed;
    const ScenarioProgram program = generate(options);
    std::vector<std::string> problems;
    EXPECT_TRUE(validate(program, &problems))
        << "seed " << seed << ": " << problems.front();
    EXPECT_GE(static_cast<int>(program.steps.size()), options.min_steps);
    EXPECT_LE(static_cast<int>(program.steps.size()), options.max_steps);
    EXPECT_GE(program.horizon_us,
              program.steps.back().at_us + options.tail_us);
  }
}

TEST(GeneratorTest, PreconditionsHoldAlongEveryProgram) {
  // Replay the abstract machine manually and assert the discipline the
  // grammar promises: acting apps are alive, release-style ops only occur
  // with a positive balance, charger ops alternate.
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    GeneratorOptions options;
    options.seed = seed;
    const ScenarioProgram program = generate(options);
    GrammarState state;
    std::int64_t last_at = 0;
    for (const Step& step : program.steps) {
      ASSERT_GT(step.at_us, last_at) << "seed " << seed;
      last_at = step.at_us;
      ASSERT_TRUE(state.step_valid(step))
          << "seed " << seed << " op " << to_string(step.op);
      if (step.op != OpKind::kUserLaunch && step.op != OpKind::kUserHome &&
          step.op != OpKind::kUserBack && step.op != OpKind::kUserTap) {
        // Every acting op names a live actor (kUserLaunch may revive).
        if (step.op == OpKind::kUnbindService) {
          EXPECT_GT(state.bindings(step.app), 0);
        }
        if (step.op == OpKind::kReleaseWakelock) {
          EXPECT_GT(state.locks(step.app), 0);
        }
        if (step.op == OpKind::kCancelAlarm) {
          EXPECT_GT(state.alarms(step.app), 0);
        }
        if (step.op == OpKind::kSensorEnd) {
          EXPECT_GT(state.sessions(step.app, step.a), 0);
        }
        if (step.op == OpKind::kPlugCharger) {
          EXPECT_FALSE(state.charging());
        }
        if (step.op == OpKind::kUnplugCharger) {
          EXPECT_TRUE(state.charging());
        }
      }
      state.apply(step);
    }
  }
}

TEST(GeneratorTest, DeadActorNeverActs) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    GeneratorOptions options;
    options.seed = seed;
    const ScenarioProgram program = generate(options);
    GrammarState state;
    for (const Step& step : program.steps) {
      // Global ops (gestures, charger, fault windows) carry app == 0
      // without acting through it; only actor ops face the liveness rule.
      if (op_has_actor(step.op) && !state.alive(step.app)) {
        EXPECT_EQ(step.op, OpKind::kUserLaunch)
            << "seed " << seed << ": dead actor performed "
            << to_string(step.op);
      }
      state.apply(step);
    }
  }
}

TEST(ProgramTest, SerializationRoundTripsExactly) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    GeneratorOptions options;
    options.seed = seed;
    const ScenarioProgram program = generate(options);
    const std::string text = program.serialize();
    ScenarioProgram reparsed;
    std::string error;
    ASSERT_TRUE(ScenarioProgram::parse(text, &reparsed, &error))
        << "seed " << seed << ": " << error;
    EXPECT_EQ(reparsed, program) << "seed " << seed;
    EXPECT_EQ(reparsed.serialize(), text) << "seed " << seed;
  }
}

TEST(ProgramTest, ParseRejectsGarbageWithLineNumbers) {
  ScenarioProgram out;
  std::string error;
  EXPECT_FALSE(ScenarioProgram::parse("not a program", &out, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;

  // A valid program with one corrupted step line.
  GeneratorOptions options;
  options.seed = 7;
  std::string text = generate(options).serialize();
  const auto pos = text.find("user_");
  if (pos != std::string::npos) {
    text.replace(pos, 5, "trash");
    EXPECT_FALSE(ScenarioProgram::parse(text, &out, &error));
    EXPECT_NE(error.find("line"), std::string::npos) << error;
  }

  // Hostile step counts: rejected at the first missing step line, never
  // by an exception out of an allocation sized from the header.
  for (const std::string count : {"18446744073709551615", "4000000000000"}) {
    const std::string hostile =
        "eandroid-fuzz-program v1\nseed 1\nhorizon_us 1000000\nsteps " +
        count + "\nend\n";
    EXPECT_FALSE(ScenarioProgram::parse(hostile, &out, &error)) << count;
    EXPECT_NE(error.find("line 5"), std::string::npos) << error;
  }
}

TEST(ProgramTest, ParseSkipsComments) {
  GeneratorOptions options;
  options.seed = 3;
  const ScenarioProgram program = generate(options);
  const std::string text =
      "# reproducer from seed 3\n# second comment\n" + program.serialize();
  ScenarioProgram reparsed;
  std::string error;
  ASSERT_TRUE(ScenarioProgram::parse(text, &reparsed, &error)) << error;
  EXPECT_EQ(reparsed, program);
}

TEST(ProgramTest, ValidateCatchesBrokenPrograms) {
  GeneratorOptions options;
  options.seed = 11;
  const ScenarioProgram good = generate(options);

  ScenarioProgram unsorted = good;
  unsorted.steps[1].at_us = unsorted.steps[0].at_us;
  EXPECT_FALSE(validate(unsorted));

  ScenarioProgram short_horizon = good;
  short_horizon.horizon_us = short_horizon.steps.back().at_us - 1;
  EXPECT_FALSE(validate(short_horizon));

  ScenarioProgram unbalanced = good;
  Step unbind;
  unbind.at_us = unbalanced.steps.front().at_us / 2;
  unbind.op = OpKind::kUnbindService;
  unbind.app = 0;
  unbalanced.steps.insert(unbalanced.steps.begin(), unbind);
  std::vector<std::string> problems;
  EXPECT_FALSE(validate(unbalanced, &problems));
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("step 0"), std::string::npos)
      << problems.front();
}

TEST(ProgramTest, RepairDropsInvalidatedDependents) {
  // bind at t1, unbind at t2: deleting the bind must drag the unbind out.
  ScenarioProgram program;
  program.seed = 1;
  Step bind;
  bind.at_us = 100'000;
  bind.op = OpKind::kBindService;
  bind.app = 1;
  Step unbind;
  unbind.at_us = 200'000;
  unbind.op = OpKind::kUnbindService;
  unbind.app = 1;
  program.steps = {bind, unbind};
  program.horizon_us = 1'000'000;
  ASSERT_TRUE(validate(program));

  ScenarioProgram broken = program;
  broken.steps.erase(broken.steps.begin());
  EXPECT_FALSE(validate(broken));
  const ScenarioProgram repaired = repair(broken);
  EXPECT_TRUE(validate(repaired));
  for (const Step& step : repaired.steps) {
    EXPECT_NE(step.op, OpKind::kUnbindService);
  }
}

}  // namespace
}  // namespace eandroid::fuzz
