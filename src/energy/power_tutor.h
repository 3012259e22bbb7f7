// PowerTutor re-implementation (Zhang et al., CODES+ISSS 2010).
//
// Same utilization/session accounting as BatteryStats but with the other
// screen policy the paper discusses: "always allocate the energy of screen
// to the foreground app". Keeps a per-app, per-component breakdown like
// the real tool's UI. Shares BatteryStats' blindness to IPC collateral
// effects — the paper modified both interfaces, and so do we (core/).
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "energy/battery_view.h"
#include "energy/slice.h"
#include "framework/package_manager.h"

namespace eandroid::energy {

/// Fed by the MeteringPipeline (energy/pipeline.h): bind_ids, then
/// fold_app per active app and fold_tail once per slice, each logging
/// its adds on the pipeline's FoldTape when it records.
class PowerTutor {
 public:
  explicit PowerTutor(const framework::PackageManager& packages)
      : packages_(packages) {}

  void bind_ids(const kernelsim::IdTable& ids) {
    assert(ids_ == nullptr || ids_ == &ids);
    ids_ = &ids;
  }
  /// Adds one active app's five direct parts, one add per part column.
  void fold_app(kernelsim::AppIdx idx, double cpu, double camera, double gps,
                double wifi, double audio, FoldTape* tape) {
    if (cpu_.size() <= idx) {
      cpu_.resize(idx + 1, 0.0);
      camera_.resize(idx + 1, 0.0);
      gps_.resize(idx + 1, 0.0);
      wifi_.resize(idx + 1, 0.0);
      audio_.resize(idx + 1, 0.0);
    }
    FoldTape::add(cpu_[idx], cpu, tape);
    FoldTape::add(camera_[idx], camera, tape);
    FoldTape::add(gps_[idx], gps, tape);
    FoldTape::add(wifi_[idx], wifi, tape);
    FoldTape::add(audio_[idx], audio, tape);
  }
  /// Per-slice tail: the foreground screen policy plus the system row.
  void fold_tail(const EnergySlice& slice, FoldTape* tape);

  [[nodiscard]] BatteryView view() const;
  [[nodiscard]] double app_energy_mj(kernelsim::Uid uid) const;
  /// Per-component energy for one app (screen included per the
  /// foreground-app policy).
  [[nodiscard]] double component_energy_mj(kernelsim::Uid uid,
                                           HwPart part) const;
  [[nodiscard]] double total_mj() const;

  void reset();
  /// reset() calls so far (a reset drops the pipeline's recorded fold).
  [[nodiscard]] std::uint64_t resets() const { return resets_; }

 private:
  [[nodiscard]] double screen_mj_of(kernelsim::Uid uid) const;
  /// Canonical part-order association, matching slice.sum_at().
  [[nodiscard]] double direct_sum_of(kernelsim::AppIdx idx) const {
    if (idx >= cpu_.size()) return 0.0;
    return cpu_[idx] + camera_[idx] + gps_[idx] + wifi_[idx] + audio_[idx];
  }

  const framework::PackageManager& packages_;
  /// Identifier table shared by every slice folded here; bound on the
  /// first slice (all slices must share a table).
  const kernelsim::IdTable* ids_ = nullptr;
  /// Direct (non-screen) energy as structure-of-arrays part columns,
  /// dense by AppIdx — the same layout as the slice.
  std::vector<double> cpu_, camera_, gps_, wifi_, audio_;
  /// Screen energy billed by the foreground policy; sorted ascending by
  /// uid (the foreground app may never appear in the interner, so this
  /// row set is keyed by uid directly).
  std::vector<std::pair<kernelsim::Uid, double>> screen_by_uid_;
  double system_mj_ = 0.0;
  double unattributed_screen_mj_ = 0.0;  // screen on with no foreground app
  std::uint64_t resets_ = 0;
};

}  // namespace eandroid::energy
