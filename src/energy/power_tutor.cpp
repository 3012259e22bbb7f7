#include "energy/power_tutor.h"

#include <algorithm>
#include <cassert>

namespace eandroid::energy {

void PowerTutor::fold_tail(const EnergySlice& slice, FoldTape* tape) {
  // Screen policy: the foreground app pays. Kept in a small sorted-by-uid
  // vector; the insert (of a +0.0 row, so every row is an accumulator) is
  // one-time per app, the steady state is a binary search and an add.
  if (slice.foreground.valid()) {
    auto it = std::lower_bound(
        screen_by_uid_.begin(), screen_by_uid_.end(), slice.foreground,
        [](const auto& entry, kernelsim::Uid u) { return entry.first < u; });
    if (it == screen_by_uid_.end() || it->first != slice.foreground) {
      it = screen_by_uid_.insert(it, {slice.foreground, 0.0});
    }
    FoldTape::add(it->second, slice.screen_mj, tape);
  } else {
    FoldTape::add(unattributed_screen_mj_, slice.screen_mj, tape);
  }
  FoldTape::add(system_mj_, slice.system_mj, tape);
}

double PowerTutor::screen_mj_of(kernelsim::Uid uid) const {
  auto it = std::lower_bound(
      screen_by_uid_.begin(), screen_by_uid_.end(), uid,
      [](const auto& entry, kernelsim::Uid u) { return entry.first < u; });
  return it != screen_by_uid_.end() && it->first == uid ? it->second : 0.0;
}

double PowerTutor::app_energy_mj(kernelsim::Uid uid) const {
  const kernelsim::AppIdx idx =
      ids_ == nullptr ? kernelsim::kNoIdx : ids_->find_app(uid);
  return direct_sum_of(idx) + screen_mj_of(uid);
}

double PowerTutor::component_energy_mj(kernelsim::Uid uid, HwPart part) const {
  if (part == HwPart::kScreen) return screen_mj_of(uid);
  const kernelsim::AppIdx idx =
      ids_ == nullptr ? kernelsim::kNoIdx : ids_->find_app(uid);
  if (idx >= cpu_.size()) return 0.0;
  switch (part) {
    case HwPart::kCpu: return cpu_[idx];
    case HwPart::kCamera: return camera_[idx];
    case HwPart::kGps: return gps_[idx];
    case HwPart::kWifi: return wifi_[idx];
    case HwPart::kAudio: return audio_[idx];
    case HwPart::kScreen: break;  // handled above
  }
  return 0.0;
}

double PowerTutor::total_mj() const {
  double total = system_mj_ + unattributed_screen_mj_;
  for (kernelsim::AppIdx idx = 0; idx < cpu_.size(); ++idx) {
    total += direct_sum_of(idx);
  }
  for (const auto& [uid, mj] : screen_by_uid_) total += mj;
  return total;
}

BatteryView PowerTutor::view() const {
  BatteryView out;
  out.total_mj = total_mj();
  auto label_of = [this](kernelsim::Uid uid) {
    const framework::PackageRecord* pkg = packages_.find(uid);
    return pkg != nullptr ? pkg->manifest->package
                          : "uid:" + std::to_string(uid.value);
  };
  for (kernelsim::AppIdx idx = 0; idx < cpu_.size(); ++idx) {
    const double direct = direct_sum_of(idx);
    if (direct <= 0.0) continue;
    const kernelsim::Uid uid = ids_->uid_of(idx);
    out.rows.push_back(
        BatteryRow{label_of(uid), uid, direct + screen_mj_of(uid), 0.0});
  }
  // Foreground apps whose only energy is screen (no direct row above).
  for (const auto& [uid, mj] : screen_by_uid_) {
    const kernelsim::AppIdx idx =
        ids_ == nullptr ? kernelsim::kNoIdx : ids_->find_app(uid);
    if (direct_sum_of(idx) > 0.0) continue;
    out.rows.push_back(BatteryRow{label_of(uid), uid, mj, 0.0});
  }
  out.rows.push_back(
      BatteryRow{"Android OS", kernelsim::Uid{}, system_mj_, 0.0});
  if (unattributed_screen_mj_ > 0.0) {
    out.rows.push_back(BatteryRow{"Screen", kernelsim::Uid{},
                                  unattributed_screen_mj_, 0.0});
  }
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

void PowerTutor::reset() {
  ++resets_;
  cpu_.clear();
  camera_.clear();
  gps_.clear();
  wifi_.clear();
  audio_.clear();
  screen_by_uid_.clear();
  system_mj_ = 0.0;
  unattributed_screen_mj_ = 0.0;
}

}  // namespace eandroid::energy
