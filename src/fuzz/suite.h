// Sweep driver: many seeds through the oracle, resmoke-style config.
//
// A sweep is the fuzzer's outer loop: generate program(seed), run the
// stacked oracle, repeat — fanned out through exp::ParallelRunner (each
// job builds its own devices, so the fan-out is embarrassingly parallel
// and results are submission-order deterministic). Failing seeds are
// auto-shrunk on the driver thread and the minimal reproducers written
// into an artifacts directory for humans (and CI) to collect.
//
// Suites are small key=value text files (bench/suites/*.cfg), one knob
// per line, '#' comments — the resmoke idiom: the suite names the
// configuration, the binary stays generic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/oracle.h"
#include "fuzz/program.h"
#include "fuzz/shrink.h"

namespace eandroid::fuzz {

struct SweepConfig {
  std::uint64_t first_seed = 1;
  int seeds = 100;
  /// Generator step-count bounds (see GeneratorOptions).
  int min_steps = 12;
  int max_steps = 48;
  /// Oracle leg toggles.
  bool single_legs = true;
  bool fleet_legs = true;
  bool trace = true;
  /// Stop launching new batches once this much wall-clock has elapsed
  /// (0 = run every seed). In-flight batches always complete.
  double time_budget_s = 0.0;
  /// Worker threads for the fan-out (0 = hardware concurrency).
  unsigned threads = 0;
  /// Auto-shrink failing seeds (predicate replays the oracle, so each
  /// shrink costs many oracle runs).
  bool shrink_failures = true;
  int max_shrink_candidates = 400;
  /// Where shrunk reproducers are written ("" = don't write).
  std::string artifacts_dir;

  /// Parses "key = value" lines ('#' comments, blank lines ignored).
  /// Unknown keys are errors — a typoed knob must not silently revert to
  /// a default. A number must be the whole value and in range: counts
  /// are >= 0, min_steps <= max_steps, the time budget is finite and
  /// >= 0, and threads, seeds and steps are capped so run_sweep's and the
  /// generator's int arithmetic cannot overflow. On failure returns false
  /// with "line N: why" in `error` and leaves `out` untouched.
  static bool parse(const std::string& text, SweepConfig* out,
                    std::string* error = nullptr);
};

struct SweepFailure {
  std::uint64_t seed = 0;
  /// The failing program as generated, and after auto-shrinking (equal to
  /// `original` when shrinking is off).
  ScenarioProgram original;
  ScenarioProgram shrunk;
  /// Leg failures + invariant violations from the original's verdict.
  std::vector<std::string> what;
  ShrinkStats shrink_stats;
  /// Path the reproducer was written to ("" when artifacts_dir unset).
  std::string artifact_path;
};

struct SweepResult {
  int scenarios_run = 0;
  std::uint64_t steps_total = 0;
  std::vector<SweepFailure> failures;
  /// Per-leg wall-clock totals summed across every scenario.
  std::vector<LegTiming> leg_seconds;
  /// Recovery counters summed across every scenario.
  RecoveryCounts recovery;
  double elapsed_s = 0.0;
  bool budget_exhausted = false;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Runs the sweep. Deterministic in everything but wall-clock fields:
/// the set of (seed, verdict) pairs for the seeds that ran is a pure
/// function of the config (the time budget only truncates the tail).
[[nodiscard]] SweepResult run_sweep(const SweepConfig& config);

}  // namespace eandroid::fuzz
