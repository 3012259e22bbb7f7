// The benchmark's workloads and the result they hand back to main().
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "probe.h"

namespace e2e {

/// Share of a traced run spent on untraced reference reps or batches (for
/// bench.span_overhead_frac); the rest is traced.
inline constexpr double kUntracedShare = 0.3;

struct RunConfig {
  std::uint64_t seed = 1;
  /// Measurement budget: reps (fleet) or batches (scenes) start until
  /// this much wall time has passed.
  double seconds = 10.0;
  /// Traced run: spans, sampler stage timing and allocation counting on;
  /// reports the per-layer metrics and prints the ledger.
  bool traced = false;
  /// Fleet workers / runner threads (nproc).
  unsigned workers = 1;
  /// Where the traced run writes its span file.
  std::string span_path;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// name -> (value, unit). main() emits them; run.py checks the names
  /// and units against BENCHMARK.json.
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// The first few failed checks, printed before the result line.
  std::vector<std::string> problems;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Sets attempted and failed from per-operation verdicts. A run repeats
  /// the same operations (fleet devices, scene jobs) on the same inputs
  /// until its time is up, so each counts once and fails if any of its
  /// repeats failed: the two numbers depend on the seed alone, not on how
  /// many repeats fit in the time budget.
  void count_ops(const std::vector<bool>& op_failed) {
    attempted = op_failed.size();
    failed = static_cast<std::uint64_t>(
        std::count(op_failed.begin(), op_failed.end(), true));
  }
  /// Records a failed check (keeps the first few messages). A wrong
  /// output makes the run incorrect; a detector verdict that misses the
  /// ground truth only fails its op (README.md, Correctness checks).
  void problem(const std::string& what, bool wrong_output = true) {
    if (wrong_output) correct = false;
    if (problems.size() < 20 &&
        std::find(problems.begin(), problems.end(), what) == problems.end()) {
      problems.push_back(what);
    }
  }
};

/// One ledger row: a layer's self time in wall seconds (or, in a split,
/// the row's weight).
struct LedgerRow {
  std::string name;
  double seconds = 0.0;
};

/// Prints the per-layer ledger of the traced phase (span `root`) and
/// writes the span file. Each row is the self time of one span name: its
/// duration minus what its children on the same thread cover, so the rows
/// add up to the root's duration. A span name listed in `splits` has its
/// self time divided among the listed rows in proportion to their weights:
/// this is how a parallel region (fleet run_for, a runner batch) is broken
/// into per-layer worker time and idle time. Records a problem if the rows
/// miss the total by more than 5% or the file cannot be written.
void report_ledger(const std::string& workload, const Spans& spans, int root,
                   const std::map<std::string, std::vector<LedgerRow>>& splits,
                   const std::string& span_path, RunResult& result);

RunResult run_fleet_campaign(const RunConfig& config);
RunResult run_paper_scenes(const RunConfig& config);

/// Determinism self-test: counts and digests repeat across two runs and
/// across 1 vs `workers` workers; two seeds differ. Returns the number of
/// failed checks.
int run_selftest(std::uint64_t seed, unsigned workers);
/// The paper_scenes half of the self-test.
int selftest_scenes(std::uint64_t seed, unsigned workers);

}  // namespace e2e
