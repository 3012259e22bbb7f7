// BatteryStats: the stock Android battery accounting.
//
// Policy (paper §II): per-app energy from utilization/sessions; screen is
// "treated as an independent part, where the energy consumed by screen is
// always displayed in total" — its own row, never charged to an app. IPC
// and collateral effects are deliberately invisible: this is the baseline
// the attacks sidestep.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "energy/battery_view.h"
#include "energy/slice.h"
#include "framework/package_manager.h"

namespace eandroid::energy {

/// Fed by the MeteringPipeline (energy/pipeline.h): bind_ids, then
/// fold_app per active app and fold_tail once per slice, each logging
/// its adds on the pipeline's FoldTape when it records.
class BatteryStats {
 public:
  explicit BatteryStats(const framework::PackageManager& packages)
      : packages_(packages) {}

  void bind_ids(const kernelsim::IdTable& ids) {
    assert(ids_ == nullptr || ids_ == &ids);
    ids_ = &ids;
  }
  /// Adds one active app's direct energy: its canonical part-order sum,
  /// cpu+camera+gps+wifi+audio, as slice.sum_at() associates it.
  void fold_app(kernelsim::AppIdx idx, double direct_mj, FoldTape* tape) {
    if (app_mj_.size() <= idx) app_mj_.resize(idx + 1, 0.0);
    FoldTape::add(app_mj_[idx], direct_mj, tape);
  }
  /// Per-slice tail: the policy rows (screen stays its own row here).
  void fold_tail(const EnergySlice& slice, FoldTape* tape) {
    FoldTape::add(screen_mj_, slice.screen_mj, tape);
    FoldTape::add(system_mj_, slice.system_mj, tape);
  }

  [[nodiscard]] BatteryView view() const;
  [[nodiscard]] double app_energy_mj(kernelsim::Uid uid) const;
  [[nodiscard]] double screen_energy_mj() const { return screen_mj_; }
  [[nodiscard]] double total_mj() const;

  void reset();
  /// reset() calls so far (a reset drops the pipeline's recorded fold).
  [[nodiscard]] std::uint64_t resets() const { return resets_; }

 private:
  const framework::PackageManager& packages_;
  /// Identifier table shared by every slice folded here; bound on the
  /// first slice (all slices must share a table).
  const kernelsim::IdTable* ids_ = nullptr;
  /// Accumulated energy, dense by AppIdx — no hashing on the slice path.
  std::vector<double> app_mj_;
  double screen_mj_ = 0.0;
  double system_mj_ = 0.0;
  std::uint64_t resets_ = 0;
};

}  // namespace eandroid::energy
