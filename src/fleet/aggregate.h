// Population-level statistics over a fleet's accounting results.
//
// The per-device EngineReports (core/engine_report.h) merge by package
// name into a FleetReport: fleet-wide direct/collateral totals per
// package, device-level row sums, and detector penetration — on how many
// devices each package tripped the CollateralAttackDetector. This is the
// fleet-scale version of the paper's per-phone tables: a campaign that
// looks like noise on one phone (a few hundred mJ of collateral) becomes
// unmistakable when 1,000 devices all attribute it to the same sender.
//
// Determinism: devices are folded in device order and package rows are
// sorted by name, so the report (and its digest) is bitwise reproducible
// for a given fleet run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/detector.h"
#include "fleet/fleet.h"

namespace eandroid::fleet {

struct FleetPackageRow {
  std::string package;
  /// Devices on which the package was installed and known to the engine.
  int devices = 0;
  double direct_mj = 0.0;
  double collateral_mj = 0.0;
  /// Devices where the detector raised at least one alert against it.
  int flagged_devices = 0;
};

struct FleetReport {
  int devices = 0;
  std::vector<FleetPackageRow> packages;  // sorted by package name
  double screen_row_mj = 0.0;
  double attributed_screen_mj = 0.0;
  double system_row_mj = 0.0;
  double true_total_mj = 0.0;
  double battery_consumed_mj = 0.0;
  std::uint64_t pushes_delivered = 0;
  std::uint64_t alerts_total = 0;
  /// Population metrics: every device's registry snapshot folded in
  /// device order (counters add; gauges merge min/max/sum/count). The
  /// rows are name-sorted, so this table is as deterministic as the rest
  /// of the report.
  obs::MetricsSnapshot metrics;

  /// Full-precision rendering of every field, for bitwise comparison.
  [[nodiscard]] std::string digest() const;
  /// Human-readable table (benches, examples).
  [[nodiscard]] std::string render() const;
};

/// Captures and merges every device's report. Driver thread, after
/// finish().
[[nodiscard]] FleetReport aggregate_fleet(
    Fleet& fleet, const core::DetectorConfig& detector_config = {});

}  // namespace eandroid::fleet
