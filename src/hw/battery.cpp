#include "hw/battery.h"

#include <algorithm>
#include <cmath>

namespace eandroid::hw {

int Battery::compute_percent() const {
  if (capacity_mj_ <= 0.0) return 0;
  return static_cast<int>(
      std::floor(100.0 * remaining_mj_ / capacity_mj_ + 1e-9));
}

void Battery::drain(double energy_mj, sim::TimePoint now) {
  if (energy_mj <= 0.0) return;
  consumed_mj_ += energy_mj;
  if (remaining_mj_ <= 0.0) return;
  const int before = percent_;
  remaining_mj_ = std::max(0.0, remaining_mj_ - energy_mj);
  const int after = percent_ = compute_percent();
  for (int level = before - 1; level >= after; --level) {
    history_.push_back(HistoryPoint{now, level});
    if (on_percent_drop_) on_percent_drop_(level);
  }
}

void Battery::deplete_to(double remaining_mj, sim::TimePoint now) {
  remaining_mj = std::max(0.0, remaining_mj);
  if (remaining_mj >= remaining_mj_) return;
  const int before = percent_;
  remaining_mj_ = remaining_mj;
  const int after = percent_ = compute_percent();
  for (int level = before - 1; level >= after; --level) {
    history_.push_back(HistoryPoint{now, level});
    if (on_percent_drop_) on_percent_drop_(level);
  }
}

void Battery::charge(double energy_mj, sim::TimePoint now) {
  if (energy_mj <= 0.0 || full()) return;
  const int before = percent_;
  remaining_mj_ = std::min(capacity_mj_, remaining_mj_ + energy_mj);
  const int after = percent_ = compute_percent();
  for (int level = before + 1; level <= after; ++level) {
    history_.push_back(HistoryPoint{now, level});
  }
}

void Battery::set_charging(bool charging, double rate_mw) {
  charging_ = charging;
  charge_rate_mw_ = charging ? rate_mw : 0.0;
}

}  // namespace eandroid::hw
