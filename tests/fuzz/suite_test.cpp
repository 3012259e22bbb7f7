// Suite .cfg parsing is a hostile-input boundary: every value below used
// to parse (std::stoi and friends read a prefix and never range-checked),
// and some drove run_sweep's int arithmetic out of range. Each must now
// be rejected at parse time with the `line N:` error of the line at
// fault, leaving the caller's config untouched. The committed suites
// must still load.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "fuzz/suite.h"

namespace eandroid::fuzz {
namespace {

struct Hostile {
  const char* lines;  // appended after two good lines
  int bad_line;
};

TEST(SweepConfigTest, RejectsHostileValuesAtTheirLine) {
  const Hostile cases[] = {
      {"threads = -1\n", 3},
      {"threads = 4294967295\n", 3},
      {"threads = 1025\n", 3},
      {"seeds = 12abc\n", 3},
      {"seeds = -3\n", 3},
      {"seeds = 2147483647\n", 3},
      {"seeds = 1e3\n", 3},
      {"first_seed = -1\n", 3},
      {"first_seed = 18446744073709551616\n", 3},
      {"min_steps = -4\n", 3},
      {"max_steps = -1\n", 3},
      {"min_steps = 50\nmax_steps = 2\n", 4},
      {"max_steps = 2\nmin_steps = 50\n", 4},
      {"min_steps = 50\n", 3},  // against the default max_steps (48)
      {"max_steps = 2147483647\n", 3},
      {"max_shrink_candidates = -7\n", 3},
      {"time_budget_s = nan\n", 3},
      {"time_budget_s = -5\n", 3},
      {"time_budget_s = inf\n", 3},
      {"time_budget_s = 5s\n", 3},
      {"trace = yes\n", 3},
  };
  for (const Hostile& c : cases) {
    const std::string text =
        std::string("# two good lines first\nseeds = 10\n") + c.lines;
    SweepConfig config;
    config.seeds = 777;
    std::string error;
    EXPECT_FALSE(SweepConfig::parse(text, &config, &error)) << c.lines;
    EXPECT_EQ(error.rfind("line " + std::to_string(c.bad_line) + ": ", 0), 0u)
        << c.lines << " gave: " << error;
    EXPECT_EQ(config.seeds, 777) << c.lines;
  }
}

TEST(SweepConfigTest, AcceptsTheEdgesOfEachRange) {
  SweepConfig config;
  std::string error;
  ASSERT_TRUE(SweepConfig::parse(
      "first_seed = 18446744073709551615\n"
      "seeds = 0\n"
      "min_steps = 0\n"
      "max_steps = 0\n"
      "threads = 1024\n"
      "max_shrink_candidates = 0\n"
      "time_budget_s = 0.5\n",
      &config, &error))
      << error;
  EXPECT_EQ(config.first_seed, 18446744073709551615ull);
  EXPECT_EQ(config.seeds, 0);
  EXPECT_EQ(config.min_steps, 0);
  EXPECT_EQ(config.max_steps, 0);
  EXPECT_EQ(config.threads, 1024u);
  EXPECT_EQ(config.max_shrink_candidates, 0);
  EXPECT_EQ(config.time_budget_s, 0.5);
}

SweepConfig load_suite(const std::string& name) {
  std::ifstream in(std::string(EANDROID_SUITES_DIR) + "/" + name);
  EXPECT_TRUE(in) << name;
  std::ostringstream text;
  text << in.rdbuf();
  SweepConfig config;
  std::string error;
  EXPECT_TRUE(SweepConfig::parse(text.str(), &config, &error))
      << name << ": " << error;
  return config;
}

TEST(SweepConfigTest, CommittedSuitesLoad) {
  const SweepConfig acceptance = load_suite("fuzz_acceptance.cfg");
  EXPECT_EQ(acceptance.seeds, 1000);
  EXPECT_EQ(acceptance.min_steps, 8);
  EXPECT_EQ(acceptance.max_steps, 32);
  EXPECT_TRUE(acceptance.trace);
  EXPECT_EQ(acceptance.time_budget_s, 0.0);

  const SweepConfig smoke = load_suite("fuzz_smoke.cfg");
  EXPECT_EQ(smoke.seeds, 100000);
  EXPECT_EQ(smoke.max_steps, 24);
  EXPECT_EQ(smoke.time_budget_s, 55.0);
  EXPECT_EQ(smoke.artifacts_dir, "fuzz_artifacts");

  const SweepConfig chaos = load_suite("chaos.cfg");
  EXPECT_EQ(chaos.seeds, 500);
  EXPECT_EQ(chaos.min_steps, 600);
  EXPECT_EQ(chaos.max_steps, 600);
  EXPECT_TRUE(chaos.single_legs);
  EXPECT_FALSE(chaos.fleet_legs);
  EXPECT_FALSE(chaos.trace);
  EXPECT_EQ(chaos.time_budget_s, 0.0);
}

}  // namespace
}  // namespace eandroid::fuzz
