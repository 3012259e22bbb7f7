#include "framework/settings_provider.h"

#include <algorithm>

namespace eandroid::framework {

SettingsProvider::SettingsProvider(sim::Simulator& sim, hw::Screen& screen,
                                   PackageManager& packages, EventBus& events)
    : sim_(sim), screen_(screen), packages_(packages), events_(events) {
  screen_.set_brightness(auto_level_);
}

bool SettingsProvider::allowed(kernelsim::Uid caller, bool by_user) const {
  if (by_user || packages_.is_system_app(caller)) return true;
  return packages_.has_permission(caller, Permission::kWriteSettings);
}

int SettingsProvider::effective_brightness() const {
  return mode_ == BrightnessMode::kAuto ? auto_level_ : manual_brightness_;
}

void SettingsProvider::apply(kernelsim::Uid driving, bool by_user) {
  const int before = screen_.brightness();
  const int after = effective_brightness();
  if (before == after) return;
  screen_.set_brightness(after);
  FwEvent event;
  event.type = FwEventType::kBrightnessChange;
  event.when = sim_.now();
  event.driving = driving;
  event.by_user = by_user;
  event.brightness_before = before;
  event.brightness_after = after;
  events_.publish(event);
}

bool SettingsProvider::set_brightness(kernelsim::Uid caller, int value,
                                      bool by_user) {
  if (!allowed(caller, by_user)) return false;
  manual_brightness_ = std::clamp(value, 0, 255);
  if (mode_ == BrightnessMode::kManual) {
    apply(caller, by_user);
  }
  // In auto mode the write is stored but "not valid until the mode is
  // switched to manual" — no event, no panel change.
  return true;
}

bool SettingsProvider::set_mode(kernelsim::Uid caller, BrightnessMode mode,
                                bool by_user) {
  if (!allowed(caller, by_user)) return false;
  if (mode == mode_) return true;
  mode_ = mode;
  FwEvent event;
  event.type = FwEventType::kScreenModeChange;
  event.when = sim_.now();
  event.driving = caller;
  event.by_user = by_user;
  event.to_manual_mode = (mode == BrightnessMode::kManual);
  events_.publish(event);
  apply(caller, by_user);
  return true;
}

void SettingsProvider::set_auto_level(int level) {
  auto_level_ = std::clamp(level, 0, 255);
  if (mode_ == BrightnessMode::kAuto) {
    // Ambient adaptation is a system action.
    apply(kernelsim::kSystemUid, /*by_user=*/false);
  }
}

}  // namespace eandroid::framework
