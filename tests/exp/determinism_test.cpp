// The ParallelRunner contract: fanning independent Testbed simulations
// across worker threads changes wall time and nothing else. Eight
// generated scenario programs run once serially and once through the
// pool; every per-seed observable must be bitwise identical. This test is
// the one the TSan config (`-DEANDROID_SANITIZE=thread`, or the
// `check_tsan` target) exercises to prove the pool is race-free.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "apps/testbed.h"
#include "exp/parallel_runner.h"
#include "fuzz/executor.h"
#include "fuzz/generator.h"

namespace eandroid::exp {
namespace {

struct SeedResult {
  std::uint64_t steps = 0;
  double sim_seconds = 0.0;
  std::uint64_t windows_opened = 0;
  std::uint64_t windows_closed = 0;
  double drained_mj = 0.0;
  double ea_total_mj = 0.0;
};

SeedResult run_seed(std::uint64_t seed) {
  apps::Testbed bed({.seed = seed});
  fuzz::install_cast(bed);
  bed.start();
  fuzz::ProgramExecutor executor(bed, fuzz::generate({.seed = seed,
                                                      .min_steps = 200,
                                                      .max_steps = 200,
                                                      .min_gap_us = 100'001,
                                                      .max_gap_us = 2'100'007}));
  executor.run();
  return SeedResult{executor.steps_applied(),
                    bed.sim().now().seconds(),
                    bed.eandroid()->tracker().opened_total(),
                    bed.eandroid()->tracker().closed_total(),
                    bed.server().battery().consumed_total_mj(),
                    bed.eandroid()->engine().true_total_mj()};
}

void expect_bitwise_equal(const SeedResult& serial, const SeedResult& pooled,
                          std::uint64_t seed) {
  EXPECT_EQ(serial.steps, pooled.steps) << "seed " << seed;
  EXPECT_EQ(serial.windows_opened, pooled.windows_opened) << "seed " << seed;
  EXPECT_EQ(serial.windows_closed, pooled.windows_closed) << "seed " << seed;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.sim_seconds),
            std::bit_cast<std::uint64_t>(pooled.sim_seconds))
      << "seed " << seed;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.drained_mj),
            std::bit_cast<std::uint64_t>(pooled.drained_mj))
      << "seed " << seed;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.ea_total_mj),
            std::bit_cast<std::uint64_t>(pooled.ea_total_mj))
      << "seed " << seed;
}

TEST(ParallelDeterminismTest, EightSeedsBitwiseIdenticalToSerial) {
  constexpr std::uint64_t kSeeds = 8;
  const auto job = [](std::size_t i) { return run_seed(i + 1); };

  std::vector<ParallelRunner<SeedResult>::Job> serial_jobs;
  for (std::size_t i = 0; i < kSeeds; ++i) {
    serial_jobs.push_back([i, &job] { return job(i); });
  }
  const std::vector<SeedResult> serial =
      ParallelRunner<SeedResult>::run_serial(std::move(serial_jobs));

  const std::vector<SeedResult> pooled =
      run_indexed<SeedResult>(kSeeds, job, {.threads = 4});

  ASSERT_EQ(pooled.size(), serial.size());
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    expect_bitwise_equal(serial[seed - 1], pooled[seed - 1], seed);
    // The soak's conservation invariant holds on both paths.
    EXPECT_NEAR(serial[seed - 1].drained_mj, serial[seed - 1].ea_total_mj,
                1e-3)
        << "seed " << seed;
  }
}

TEST(ParallelDeterminismTest, RepeatedParallelRunsAgree) {
  constexpr std::uint64_t kSeeds = 4;
  const auto job = [](std::size_t i) { return run_seed(i + 1); };
  const auto first = run_indexed<SeedResult>(kSeeds, job, {.threads = 4});
  const auto second = run_indexed<SeedResult>(kSeeds, job, {.threads = 2});
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    expect_bitwise_equal(first[seed - 1], second[seed - 1], seed);
  }
}

}  // namespace
}  // namespace eandroid::exp
