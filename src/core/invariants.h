// InvariantChecker: global consistency checks, callable after any event.
//
// The chaos suite (bench/suites/chaos.cfg, run by fuzz_sweep) replays
// hundreds of long generated scenario programs, fault ops included, and
// asks after every step whether the device is still internally
// consistent. The checks encode the properties the rest of
// the reproduction silently relies on:
//
//   * energy conservation — every profiler's total (BatteryStats,
//     PowerTutor, E-Android's engine) equals the battery's cumulative
//     consumption to within tolerance, and the engine's own rows
//     (per-app direct + screen row + system row) re-sum to its total;
//   * no dangling state for dead apps — a dead uid holds no wakelocks,
//     hosts no alive service, owns no live binding, and is the driven
//     side of no open collateral window (windows *driven by* a dead app
//     deliberately survive: its collateral stays on its account);
//   * Binder reference consistency — every live token's owner process is
//     alive (death reaps tokens synchronously);
//   * collateral sanity — no single driver's collateral account exceeds
//     the energy the device actually consumed (superimposition can
//     duplicate energy across drivers, never inflate one account past
//     ground truth).
//
// The checker only reads; it never mutates the device. Call flush() on
// the sampler first so the energy totals include the trailing partial
// sample window.
#pragma once

#include <string>
#include <vector>

#include "core/e_android.h"
#include "energy/battery_stats.h"
#include "energy/power_tutor.h"
#include "framework/system_server.h"

namespace eandroid::core {

struct InvariantReport {
  std::vector<std::string> violations;
  [[nodiscard]] bool ok() const { return violations.empty(); }
  [[nodiscard]] std::string to_string() const;
};

class InvariantChecker {
 public:
  struct Config {
    /// Absolute tolerance for energy-conservation comparisons (mJ). The
    /// acceptance bar is "< 1 mJ"; slices accumulate in doubles, so the
    /// practical error is orders of magnitude below this.
    double energy_tolerance_mj = 1e-3;
  };

  explicit InvariantChecker(framework::SystemServer& server)
      : server_(server) {}
  InvariantChecker(framework::SystemServer& server, Config config)
      : server_(server), config_(config) {}

  // Optional subsystems; unattached ones are skipped.
  void attach(const EAndroid* ea) { eandroid_ = ea; }
  void attach(const energy::BatteryStats* stats) { battery_stats_ = stats; }
  void attach(const energy::PowerTutor* tutor) { power_tutor_ = tutor; }

  /// Runs every check; the report lists each violated invariant.
  [[nodiscard]] InvariantReport check() const;

  // Individual check groups (each appends violations to `out`).
  void check_energy_conservation(std::vector<std::string>& out) const;
  void check_dead_uid_state(std::vector<std::string>& out) const;
  void check_binder_consistency(std::vector<std::string>& out) const;
  void check_collateral_sanity(std::vector<std::string>& out) const;
  void check_battery_sanity(std::vector<std::string>& out) const;

 private:
  framework::SystemServer& server_;
  Config config_;
  const EAndroid* eandroid_ = nullptr;
  const energy::BatteryStats* battery_stats_ = nullptr;
  const energy::PowerTutor* power_tutor_ = nullptr;
};

}  // namespace eandroid::core
