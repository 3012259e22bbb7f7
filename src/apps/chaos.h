// Chaos harness: one simulated phone under a randomized fault schedule.
//
// Builds a Testbed with the RandomWorkload cast, arms a seeded FaultPlan
// (sim/fault.h) whose actions are bound to the real subsystems — process
// kills, wakelock-holder kills, main-thread hangs, Binder failures,
// dropped broadcasts, deferred alarms, battery exhaustion — runs the
// workload through it, and returns a digest of everything observable:
// fault counts, recovery counts (service restarts, ANR kills), energy
// totals, and the InvariantChecker's report.
//
// Two properties make it a harness rather than a demo:
//   * the digest is a full-precision string, so two runs of the same seed
//     can be compared bitwise (determinism under faults);
//   * a failing seed is self-contained — re-running run_chaos with the
//     same options replays the identical schedule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "sim/time.h"

namespace eandroid::apps {

struct ChaosOptions {
  std::uint64_t seed = 1;
  /// Random user/app operations to drive (each advances 0.1–2.1 s).
  int workload_steps = 300;
  /// Faults drawn into the plan.
  int fault_count = 12;
  /// Faults land uniformly in (0, horizon].
  sim::Duration horizon = sim::seconds(120);
  /// Observability passthrough (TestbedOptions::obs). Tracing a chaos
  /// run captures the fault/recovery event order; the trace text rides
  /// on ChaosResult::trace_text and stays OUT of the digest, which must
  /// not change when tracing is toggled.
  obs::ObsOptions obs{};
};

struct ChaosResult {
  std::uint64_t seed = 0;
  std::string plan;

  std::uint64_t faults_injected = 0;
  std::uint64_t faults_skipped = 0;
  std::uint64_t service_restarts = 0;
  std::uint64_t anr_kills = 0;
  std::uint64_t binder_failures = 0;
  std::uint64_t broadcasts_dropped = 0;
  std::uint64_t alarms_delayed = 0;

  std::uint64_t workload_steps = 0;
  std::uint64_t windows_opened = 0;
  std::uint64_t windows_closed = 0;
  double sim_seconds = 0.0;
  double consumed_mj = 0.0;
  double ea_total_mj = 0.0;

  std::vector<std::string> violations;

  /// Text export of the device trace when ChaosOptions::obs.trace was
  /// set, empty otherwise. Deliberately excluded from digest(): tracing
  /// must never change what the simulation computes.
  std::string trace_text;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  /// Full-precision rendering of every field above; equal digests mean
  /// the runs were observably identical.
  [[nodiscard]] std::string digest() const;
};

/// Runs one seeded chaos schedule to completion.
ChaosResult run_chaos(const ChaosOptions& options);

}  // namespace eandroid::apps
