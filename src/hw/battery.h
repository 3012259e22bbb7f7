// Battery model: a coulomb counter over the virtual clock.
//
// The energy sampler integrates total device power each sampling window and
// drains the battery accordingly. The battery records a (time, percent)
// history so benches can plot drain curves (paper Figure 3), and exposes
// level callbacks for scenarios that run "until the battery is dead".
#pragma once

#include <functional>
#include <vector>

#include "sim/time.h"

namespace eandroid::hw {

class Battery {
 public:
  /// `capacity_mwh` — usable energy when full (milliwatt-hours).
  explicit Battery(double capacity_mwh)
      : capacity_mj_(capacity_mwh * 3600.0),  // 1 mWh = 3600 mJ
        remaining_mj_(capacity_mj_),
        percent_(compute_percent()) {
    // One history point per integer-percent change: a full discharge is
    // ~101 entries, so this keeps the metering tick allocation-free.
    history_.reserve(128);
  }

  /// Removes `energy_mj` millijoules; clamps at empty.
  void drain(double energy_mj, sim::TimePoint now);

  /// Adds `energy_mj` (charger current); clamps at full. Percent rises
  /// are recorded in the history like drops are.
  void charge(double energy_mj, sim::TimePoint now);

  /// Fault injection: collapses the remaining charge down to
  /// `remaining_mj` (sudden cell exhaustion / capacity fade) WITHOUT
  /// touching the consumption ledger — the vanished energy was never
  /// consumed by the device, so profiler totals must not be expected to
  /// cover it. Percent drops are recorded in the history as usual.
  void deplete_to(double remaining_mj, sim::TimePoint now);

  /// Charger state; the metering loop turns the charge rate minus the
  /// device's consumption into charge()/drain() calls.
  void set_charging(bool charging, double rate_mw = 5000.0);
  [[nodiscard]] bool charging() const { return charging_; }
  [[nodiscard]] double charge_rate_mw() const { return charge_rate_mw_; }
  [[nodiscard]] bool full() const { return remaining_mj_ >= capacity_mj_; }

  [[nodiscard]] double capacity_mj() const { return capacity_mj_; }
  [[nodiscard]] double remaining_mj() const { return remaining_mj_; }
  /// Net deficit against a full battery (shrinks while charging).
  [[nodiscard]] double drained_mj() const {
    return capacity_mj_ - remaining_mj_;
  }
  /// Cumulative energy the device consumed, independent of charging —
  /// the ground truth every profiler's total is checked against.
  [[nodiscard]] double consumed_total_mj() const { return consumed_mj_; }
  /// Integer percent, kept up to date by every change of the charge.
  [[nodiscard]] int percent() const { return percent_; }
  [[nodiscard]] bool empty() const { return remaining_mj_ <= 0.0; }

  struct HistoryPoint {
    sim::TimePoint when;
    int percent;
  };
  /// One entry per integer-percent drop (plus the initial 100%).
  [[nodiscard]] const std::vector<HistoryPoint>& history() const {
    return history_;
  }

  /// Runs whenever the integer percent decreases.
  void set_on_percent_drop(std::function<void(int)> cb) {
    on_percent_drop_ = std::move(cb);
  }

 private:
  [[nodiscard]] int compute_percent() const;

  double capacity_mj_;
  double remaining_mj_;
  /// percent() of remaining_mj_, recomputed where remaining_mj_ changes.
  int percent_;
  double consumed_mj_ = 0.0;
  bool charging_ = false;
  double charge_rate_mw_ = 0.0;
  std::vector<HistoryPoint> history_{{sim::TimePoint{}, 100}};
  std::function<void(int)> on_percent_drop_;
};

}  // namespace eandroid::hw
