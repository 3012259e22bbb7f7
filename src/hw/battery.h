// Battery model: a coulomb counter over the virtual clock.
//
// The energy sampler integrates total device power each sampling window
// and applies the window's flows in one call, meter(): the consumption
// drains the cell, then a connected charger back-fills it. The battery
// records a (time, percent) history so benches can plot drain curves
// (paper Figure 3) — one point per integer percent that a call's NET
// change crosses, so a phone held at full on the charger records
// nothing.
//
// The integer percent is a floor of a division, and the metering tick
// of every device updates the charge. The battery therefore keeps a band
// of remaining_mj() that sits conservatively inside the current
// percent's interval and recomputes the percent only when the charge
// leaves it: percent() and every history point equal what computing the
// floor after every call gives.
#pragma once

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
    set_band();
    // One history point per integer-percent change: a full discharge is
    // ~101 entries, so this keeps the metering tick allocation-free.
    history_.reserve(128);
  }

  /// One metering window's flows, applied in this order: the device
  /// consumed `consumed_mj` (counted in the consumption ledger always,
  /// drained from the cell until it is empty), then the charger supplied
  /// `charged_mj` (clamps at full). Non-positive flows are ignored. The
  /// percent and the history move once, for the net change.
  void meter(double consumed_mj, double charged_mj, sim::TimePoint now);
  /// meter() with consumption only.
  void drain(double energy_mj, sim::TimePoint now) {
    meter(energy_mj, 0.0, now);
  }
  /// meter() with the charger's flow only.
  void charge(double energy_mj, sim::TimePoint now) {
    meter(0.0, energy_mj, now);
  }

  /// Fault injection: collapses the remaining charge down to
  /// `remaining_mj` (sudden cell exhaustion / capacity fade) WITHOUT
  /// touching the consumption ledger — the vanished energy was never
  /// consumed by the device, so profiler totals must not be expected to
  /// cover it. Percent drops are recorded in the history as usual.
  void deplete_to(double remaining_mj, sim::TimePoint now);

  /// Charger state; the metering loop passes the charge rate over each
  /// window to meter(). The rate reads 0 while unplugged.
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
  /// Integer percent, floor(100 * remaining / capacity) up to a 1e-9
  /// rounding allowance, kept up to date by every change of the charge.
  [[nodiscard]] int percent() const { return percent_; }
  [[nodiscard]] bool empty() const { return remaining_mj_ <= 0.0; }

  struct HistoryPoint {
    sim::TimePoint when;
    int percent;
  };
  /// The initial 100%, then one entry per integer percent crossed: drops
  /// descending, rises ascending.
  [[nodiscard]] const std::vector<HistoryPoint>& history() const {
    return history_;
  }

 private:
  [[nodiscard]] int compute_percent() const;
  /// The band of remaining_mj_ inside which compute_percent() is sure to
  /// return percent_.
  void set_band();
  /// Brings percent_ and the history up to date with remaining_mj_.
  void settle(sim::TimePoint now);

  double capacity_mj_;
  double remaining_mj_;
  /// percent() of remaining_mj_, recomputed when remaining_mj_ leaves
  /// [band_lo_mj_, band_hi_mj_].
  int percent_;
  double band_lo_mj_ = 0.0;
  double band_hi_mj_ = 0.0;
  double consumed_mj_ = 0.0;
  bool charging_ = false;
  double charge_rate_mw_ = 0.0;
  std::vector<HistoryPoint> history_{{sim::TimePoint{}, 100}};
};

}  // namespace eandroid::hw
