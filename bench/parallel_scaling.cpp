// Serial vs parallel throughput of the experiment runner on the 12-seed
// soak workload (600-step generated programs), plus the determinism
// contract: every per-seed result (drain, windows, steps, conservation
// inputs) must be BITWISE identical to the serial path — fan-out may only
// change wall time, never physics.
//
// Emits BENCH_parallel.json (machine-readable) so future PRs can track
// the perf trajectory across commits and machines.
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "apps/testbed.h"
#include "exp/parallel_runner.h"
#include "fuzz/executor.h"
#include "fuzz/generator.h"

namespace {

using namespace eandroid;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kSeeds = 12;
constexpr int kSteps = 600;

struct SoakResult {
  std::uint64_t steps = 0;
  double sim_seconds = 0.0;
  std::uint64_t windows_opened = 0;
  std::uint64_t windows_closed = 0;
  double drained_mj = 0.0;
  double ea_total_mj = 0.0;
};

SoakResult run_seed(std::uint64_t seed) {
  apps::Testbed bed({.seed = seed});
  if (seed % 2 == 0) bed.server().lmk().set_budget_mb(400);
  fuzz::install_cast(bed);
  bed.start();
  fuzz::ProgramExecutor executor(
      bed, fuzz::generate({.seed = seed,
                           .min_steps = kSteps,
                           .max_steps = kSteps,
                           .min_gap_us = 100'001,
                           .max_gap_us = 2'100'007}));
  executor.run();
  return SoakResult{executor.steps_applied(),
                    bed.sim().now().seconds(),
                    bed.eandroid()->tracker().opened_total(),
                    bed.eandroid()->tracker().closed_total(),
                    bed.server().battery().consumed_total_mj(),
                    bed.eandroid()->engine().true_total_mj()};
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool identical(const std::vector<SoakResult>& a,
               const std::vector<SoakResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].steps != b[i].steps ||
        a[i].windows_opened != b[i].windows_opened ||
        a[i].windows_closed != b[i].windows_closed ||
        !same_bits(a[i].sim_seconds, b[i].sim_seconds) ||
        !same_bits(a[i].drained_mj, b[i].drained_mj) ||
        !same_bits(a[i].ea_total_mj, b[i].ea_total_mj)) {
      return false;
    }
  }
  return true;
}

std::vector<exp::ParallelRunner<SoakResult>::Job> make_jobs() {
  std::vector<exp::ParallelRunner<SoakResult>::Job> jobs;
  jobs.reserve(kSeeds);
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    jobs.push_back([seed] { return run_seed(seed); });
  }
  return jobs;
}

double total_sim_seconds(const std::vector<SoakResult>& results) {
  double total = 0.0;
  for (const SoakResult& r : results) total += r.sim_seconds;
  return total;
}

struct Measurement {
  unsigned threads = 0;  // 0 = serial reference
  double wall_s = 0.0;
  double sims_per_wall_s = 0.0;
  double speedup = 1.0;
  bool identical_to_serial = true;
  /// More workers than cores: wall time then measures scheduler churn,
  /// not scaling, so no speedup claim is made for this row.
  bool oversubscribed = false;
};

/// Thread counts to sweep: EANDROID_BENCH_THREADS ("1,2,4") overrides the
/// default {1, 2, 4, hw} so CI and small containers can pin the sweep to
/// what the machine actually has.
std::vector<unsigned> thread_configs(unsigned hw) {
  if (const char* env = std::getenv("EANDROID_BENCH_THREADS")) {
    std::vector<unsigned> configs;
    unsigned value = 0;
    bool have_digit = false;
    for (const char* p = env;; ++p) {
      if (*p >= '0' && *p <= '9') {
        value = value * 10 + static_cast<unsigned>(*p - '0');
        have_digit = true;
      } else if (*p == ',' || *p == '\0') {
        if (have_digit && value > 0) configs.push_back(value);
        value = 0;
        have_digit = false;
        if (*p == '\0') break;
      }
    }
    if (!configs.empty()) return configs;
  }
  std::vector<unsigned> configs = {1, 2, 4};
  if (hw > 4) configs.push_back(hw);
  return configs;
}

}  // namespace

int main() {
  using namespace eandroid;

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("=== parallel scaling: %llu-seed soak, %d steps each "
              "(hardware_concurrency=%u) ===\n\n",
              static_cast<unsigned long long>(kSeeds), kSteps, hw);

  const auto serial_start = Clock::now();
  const std::vector<SoakResult> serial =
      exp::ParallelRunner<SoakResult>::run_serial(make_jobs());
  const double serial_wall =
      std::chrono::duration<double>(Clock::now() - serial_start).count();
  const double sim_seconds = total_sim_seconds(serial);

  std::printf("%8s %10s %16s %9s %10s\n", "threads", "wall (s)",
              "sim-s / wall-s", "speedup", "identical");
  std::printf("%8s %10.2f %16.0f %8.2fx %10s\n", "serial", serial_wall,
              sim_seconds / serial_wall, 1.0, "--");

  const std::vector<unsigned> configs = thread_configs(hw);
  std::vector<Measurement> measurements;
  bool all_identical = true;
  for (const unsigned threads : configs) {
    const auto start = Clock::now();
    const std::vector<SoakResult> parallel =
        exp::ParallelRunner<SoakResult>({.threads = threads})
            .run(make_jobs());
    const double wall =
        std::chrono::duration<double>(Clock::now() - start).count();
    Measurement m;
    m.threads = threads;
    m.wall_s = wall;
    m.sims_per_wall_s = sim_seconds / wall;
    m.speedup = serial_wall / wall;
    m.identical_to_serial = identical(serial, parallel);
    m.oversubscribed = threads > hw;
    all_identical = all_identical && m.identical_to_serial;
    measurements.push_back(m);
    if (m.oversubscribed) {
      std::printf("%8u %10.2f %16.0f %9s %10s\n", threads, wall,
                  m.sims_per_wall_s, "--", m.identical_to_serial ? "yes" : "NO");
    } else {
      std::printf("%8u %10.2f %16.0f %8.2fx %10s\n", threads, wall,
                  m.sims_per_wall_s, m.speedup,
                  m.identical_to_serial ? "yes" : "NO");
    }
  }

  std::FILE* json = std::fopen("BENCH_parallel.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"parallel_scaling\",\n"
                 "  \"workload\": {\"seeds\": %llu, \"steps\": %d, "
                 "\"sim_seconds\": %.3f},\n"
                 "  \"effective_cores\": %u,\n"
                 "  \"serial\": {\"wall_s\": %.4f, \"sims_per_wall_s\": "
                 "%.1f},\n"
                 "  \"parallel\": [",
                 static_cast<unsigned long long>(kSeeds), kSteps, sim_seconds,
                 hw, serial_wall, sim_seconds / serial_wall);
    for (std::size_t i = 0; i < measurements.size(); ++i) {
      const Measurement& m = measurements[i];
      std::fprintf(json,
                   "%s\n    {\"threads\": %u, \"wall_s\": %.4f, "
                   "\"sims_per_wall_s\": %.1f, ",
                   i == 0 ? "" : ",", m.threads, m.wall_s, m.sims_per_wall_s);
      if (m.oversubscribed) {
        // More workers than cores: speedup would be noise, not scaling.
        std::fprintf(json, "\"speedup\": null, \"oversubscribed\": true, ");
      } else {
        std::fprintf(json, "\"speedup\": %.3f, \"oversubscribed\": false, ",
                     m.speedup);
      }
      std::fprintf(json, "\"identical_to_serial\": %s}",
                   m.identical_to_serial ? "true" : "false");
    }
    std::fprintf(json,
                 "\n  ],\n"
                 "  \"all_identical\": %s\n"
                 "}\n",
                 all_identical ? "true" : "false");
    std::fclose(json);
    std::printf("\nwrote BENCH_parallel.json\n");
  }

  if (!all_identical) {
    std::printf("FAIL: parallel results diverged from the serial path\n");
    return 1;
  }
  // Speedup is hardware-dependent (a 1-core container cannot show any);
  // determinism is the hard gate, throughput is the tracked trajectory.
  return 0;
}
