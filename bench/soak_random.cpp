// Soak bench: long generated scenario programs (fuzz/generator.h)
// across many seeds, verifying the global invariants hold at scale and
// reporting throughput (how much simulated phone activity the stack
// processes per wall second).
//
// Seeds are independent simulations, so they fan out across the
// exp::ParallelRunner; results come back in seed order and are identical
// to the old serial loop (see bench/parallel_scaling.cpp, which proves
// that bit for bit).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "apps/testbed.h"
#include "exp/parallel_runner.h"
#include "fuzz/executor.h"
#include "fuzz/generator.h"

namespace {

using namespace eandroid;

struct SoakResult {
  std::uint64_t steps = 0;
  double sim_seconds = 0.0;
  std::uint64_t windows = 0;
  double drained_mj = 0.0;
  double ea_total_mj = 0.0;

  [[nodiscard]] bool conserved() const {
    return std::abs(drained_mj - ea_total_mj) < 1e-3;
  }
};

SoakResult run_seed(std::uint64_t seed) {
  apps::Testbed bed({.seed = seed});
  if (seed % 2 == 0) bed.server().lmk().set_budget_mb(400);
  fuzz::install_cast(bed);
  bed.start();
  fuzz::ProgramExecutor executor(
      bed, fuzz::generate({.seed = seed,
                           .min_steps = 600,
                           .max_steps = 600,
                           .min_gap_us = 100'001,
                           .max_gap_us = 2'100'007}));
  executor.run();
  return SoakResult{executor.steps_applied(), bed.sim().now().seconds(),
                    bed.eandroid()->tracker().opened_total(),
                    bed.server().battery().consumed_total_mj(),
                    bed.eandroid()->engine().true_total_mj()};
}

}  // namespace

int main() {
  using namespace eandroid;
  using Clock = std::chrono::steady_clock;

  constexpr std::uint64_t kSeeds = 12;
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  std::printf("=== soak: randomized device activity across seeds "
              "(%u worker threads) ===\n\n",
              threads);
  std::printf("%6s %10s %12s %10s %10s %9s\n", "seed", "steps",
              "sim time", "windows", "drain(kJ)", "conserved");

  const auto start = Clock::now();
  const std::vector<SoakResult> results = exp::run_indexed<SoakResult>(
      kSeeds, [](std::size_t i) { return run_seed(i + 1); });
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();

  double total_sim_seconds = 0.0;
  int violations = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const SoakResult& r = results[seed - 1];
    if (!r.conserved()) ++violations;
    total_sim_seconds += r.sim_seconds;
    std::printf("%6llu %10llu %10.1f s %10llu %10.1f %9s\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(r.steps), r.sim_seconds,
                static_cast<unsigned long long>(r.windows),
                r.drained_mj / 1000.0, r.conserved() ? "yes" : "NO");
  }
  std::printf("\n%d conservation violations; %.0fx realtime (%.1f sim-s "
              "per wall-s)\n",
              violations, total_sim_seconds / wall, total_sim_seconds / wall);
  return violations == 0 ? 0 : 1;
}
