// The stacked differential oracle: one ScenarioProgram, several routes.
//
// A program is replayed on every execution route the repo claims is
// observationally identical, and the full-precision energy digests (and
// trace bytes, when tracing is on) are compared bit for bit:
//
//   single-device legs — determinism (same spec twice), plus an
//   InvariantChecker leg that runs the full consistency check after every
//   step (its digest is never compared — mid-run sampler flushes move
//   window boundaries) and reads the server's recovery counters at the
//   end;
//
//   fleet legs — a 4-device serial reference (each device built alone and
//   driven window by window with fleet::run_serially) against the
//   multi-worker fleet, with a push-broker campaign layered on top so
//   cross-device injection is in play.
//
// The verdict lists one line per broken leg plus any invariant
// violations, and times each leg for the bench's oracle-leg breakdown.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/program.h"

namespace eandroid::framework {
class SystemServer;
}

namespace eandroid::fuzz {

struct OracleOptions {
  /// Single-device legs (determinism, per-step invariants).
  bool single_legs = true;
  /// Fleet legs (serial reference vs the multi-worker fleet). Heavier —
  /// two 4-device runs per program.
  bool fleet_legs = true;
  /// Record and compare trace bytes as well as digests.
  bool trace = true;
};

struct LegTiming {
  std::string leg;
  double seconds = 0.0;
};

/// How often the framework recovered from (or absorbed) a fault: the
/// evidence that fault ops reached the code paths they target.
struct RecoveryCounts {
  std::uint64_t service_restarts = 0;
  std::uint64_t anr_kills = 0;
  std::uint64_t binder_failures = 0;
  std::uint64_t broadcasts_dropped = 0;
  std::uint64_t alarms_delayed = 0;

  RecoveryCounts& operator+=(const RecoveryCounts& other) {
    service_restarts += other.service_restarts;
    anr_kills += other.anr_kills;
    binder_failures += other.binder_failures;
    broadcasts_dropped += other.broadcasts_dropped;
    alarms_delayed += other.alarms_delayed;
    return *this;
  }
  bool operator==(const RecoveryCounts&) const = default;
};

/// Reads the five counters off a device's server.
[[nodiscard]] RecoveryCounts read_recovery(framework::SystemServer& server);

struct OracleVerdict {
  /// One "leg: what diverged" line per broken equivalence.
  std::vector<std::string> failures;
  /// "step N (op): violation" lines from the per-step invariant leg.
  std::vector<std::string> invariant_violations;
  /// Wall-clock cost of every leg that ran.
  std::vector<LegTiming> timings;
  /// Steps the reference run dispatched (sanity: == program.steps.size()).
  std::uint64_t steps_applied = 0;
  /// The invariant leg's server counters at the end of the run (zero when
  /// the single legs are off).
  RecoveryCounts recovery;

  [[nodiscard]] bool ok() const {
    return failures.empty() && invariant_violations.empty();
  }
  [[nodiscard]] std::string to_string() const;
};

/// Replays `program` on every enabled route and compares. The program
/// must satisfy validate() (checked error otherwise).
[[nodiscard]] OracleVerdict run_oracle(const ScenarioProgram& program,
                                       const OracleOptions& options = {});

}  // namespace eandroid::fuzz
