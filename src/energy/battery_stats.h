// BatteryStats: the stock Android battery accounting.
//
// Policy (paper §II): per-app energy from utilization/sessions; screen is
// "treated as an independent part, where the energy consumed by screen is
// always displayed in total" — its own row, never charged to an app. IPC
// and collateral effects are deliberately invisible: this is the baseline
// the attacks sidestep.
#pragma once

#include <cassert>
#include <vector>

#include "energy/battery_view.h"
#include "energy/slice.h"
#include "framework/package_manager.h"

namespace eandroid::energy {

/// Fed by the MeteringPipeline (energy/pipeline.h): bind_ids, then
/// fold_columns and fold_tail once per slice.
class BatteryStats {
 public:
  explicit BatteryStats(const framework::PackageManager& packages)
      : packages_(packages) {}

  void bind_ids(const kernelsim::IdTable& ids) {
    assert(ids_ == nullptr || ids_ == &ids);
    ids_ = &ids;
  }
  /// Dense column fold over all `n` cells of a sealed slice's part
  /// columns (EnergySlice::TouchedView). Equal to adding each active
  /// app's slice.sum_at(): untouched cells are exact +0.0, the per-cell
  /// association is the same cpu+camera+gps+wifi+audio as sum_at(), and
  /// app_mj_ never holds -0.0, so the extra `+= +0.0` terms are bitwise
  /// no-ops. Straight-line over disjoint arrays — vectorises.
  void fold_columns(const double* cpu, const double* camera,
                    const double* gps, const double* wifi,
                    const double* audio, std::size_t n) {
    if (app_mj_.size() < n) app_mj_.resize(n, 0.0);
    double* out = app_mj_.data();
    for (std::size_t i = 0; i < n; ++i) {
      out[i] += cpu[i] + camera[i] + gps[i] + wifi[i] + audio[i];
    }
  }
  /// Per-slice tail: the policy rows (screen stays its own row here).
  void fold_tail(const EnergySlice& slice) {
    screen_mj_ += slice.screen_mj;
    system_mj_ += slice.system_mj;
  }

  [[nodiscard]] BatteryView view() const;
  [[nodiscard]] double app_energy_mj(kernelsim::Uid uid) const;
  [[nodiscard]] double screen_energy_mj() const { return screen_mj_; }
  [[nodiscard]] double total_mj() const;

  void reset();

 private:
  const framework::PackageManager& packages_;
  /// Identifier table shared by every slice folded here; bound on the
  /// first slice (all slices must share a table).
  const kernelsim::IdTable* ids_ = nullptr;
  /// Accumulated energy, dense by AppIdx — no hashing on the slice path.
  std::vector<double> app_mj_;
  double screen_mj_ = 0.0;
  double system_mj_ = 0.0;
};

}  // namespace eandroid::energy
