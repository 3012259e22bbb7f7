#include "hw/battery.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace eandroid::hw {

int Battery::compute_percent() const {
  if (capacity_mj_ <= 0.0) return 0;
  return static_cast<int>(
      std::floor(100.0 * remaining_mj_ / capacity_mj_ + 1e-9));
}

void Battery::set_band() {
  if (capacity_mj_ <= 0.0) {
    // compute_percent() is 0 whatever the charge.
    band_lo_mj_ = -std::numeric_limits<double>::infinity();
    band_hi_mj_ = std::numeric_limits<double>::infinity();
    return;
  }
  // compute_percent() returns p for x = 100 * remaining / capacity in
  // [p - 1e-9, p + 1 - 1e-9). The band is [p - 1e-10, p + 1 - 2e-9] in x:
  // its margins to those edges (9e-10 and 1e-9) are orders of magnitude
  // wider than the rounding of either computation (a few ulp of x, which
  // is at most 100), so a charge inside it floors to p. It holds the
  // full charge at 100%: a phone kept full never recomputes.
  const double mj_per_percent = capacity_mj_ / 100.0;
  band_lo_mj_ = (percent_ - 1e-10) * mj_per_percent;
  band_hi_mj_ = (percent_ + 1 - 2e-9) * mj_per_percent;
}

void Battery::settle(sim::TimePoint now) {
  if (remaining_mj_ >= band_lo_mj_ && remaining_mj_ <= band_hi_mj_) return;
  const int before = percent_;
  percent_ = compute_percent();
  set_band();
  for (int level = before - 1; level >= percent_; --level) {
    history_.push_back(HistoryPoint{now, level});
  }
  for (int level = before + 1; level <= percent_; ++level) {
    history_.push_back(HistoryPoint{now, level});
  }
}

void Battery::meter(double consumed_mj, double charged_mj,
                    sim::TimePoint now) {
  if (consumed_mj > 0.0) {
    consumed_mj_ += consumed_mj;
    if (remaining_mj_ > 0.0) {
      remaining_mj_ = std::max(0.0, remaining_mj_ - consumed_mj);
    }
  }
  if (charged_mj > 0.0 && !full()) {
    remaining_mj_ = std::min(capacity_mj_, remaining_mj_ + charged_mj);
  }
  settle(now);
}

void Battery::deplete_to(double remaining_mj, sim::TimePoint now) {
  remaining_mj = std::max(0.0, remaining_mj);
  if (remaining_mj >= remaining_mj_) return;
  remaining_mj_ = remaining_mj;
  settle(now);
}

void Battery::set_charging(bool charging, double rate_mw) {
  charging_ = charging;
  charge_rate_mw_ = charging ? rate_mw : 0.0;
}

}  // namespace eandroid::hw
