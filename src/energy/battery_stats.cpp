#include "energy/battery_stats.h"

#include <algorithm>
#include <cassert>

namespace eandroid::energy {

double BatteryStats::app_energy_mj(kernelsim::Uid uid) const {
  if (ids_ == nullptr) return 0.0;
  const kernelsim::AppIdx idx = ids_->find_app(uid);
  return idx < app_mj_.size() ? app_mj_[idx] : 0.0;
}

double BatteryStats::total_mj() const {
  double total = screen_mj_ + system_mj_;
  for (const double mj : app_mj_) total += mj;
  return total;
}

BatteryView BatteryStats::view() const {
  BatteryView out;
  out.total_mj = total_mj();
  for (kernelsim::AppIdx idx = 0; idx < app_mj_.size(); ++idx) {
    if (app_mj_[idx] <= 0.0) continue;
    const kernelsim::Uid uid = ids_->uid_of(idx);
    const framework::PackageRecord* pkg = packages_.find(uid);
    BatteryRow row;
    row.label = pkg != nullptr ? pkg->manifest->package
                               : "uid:" + std::to_string(uid.value);
    row.uid = uid;
    row.energy_mj = app_mj_[idx];
    out.rows.push_back(row);
  }
  out.rows.push_back(BatteryRow{"Screen", kernelsim::Uid{}, screen_mj_, 0.0});
  out.rows.push_back(
      BatteryRow{"Android OS", kernelsim::Uid{}, system_mj_, 0.0});
  std::sort(out.rows.begin(), out.rows.end(),
            [](const BatteryRow& a, const BatteryRow& b) {
              if (a.energy_mj != b.energy_mj) return a.energy_mj > b.energy_mj;
              return a.label < b.label;
            });
  if (out.total_mj > 0.0) {
    for (auto& row : out.rows) row.percent = 100.0 * row.energy_mj / out.total_mj;
  }
  return out;
}

void BatteryStats::reset() {
  ++resets_;
  app_mj_.clear();
  screen_mj_ = 0.0;
  system_mj_ = 0.0;
}

}  // namespace eandroid::energy
