// EnergySlice: one sampling window's energy, broken down for attribution.
//
// The sampler integrates component power over each window and attributes
// what is *mechanically* attributable (CPU active share, camera/GPS/WiFi/
// audio sessions). Screen energy is policy — Android shows it as its own
// row, PowerTutor charges the foreground app, E-Android charges collateral
// screen energy to its initiator — so the slice carries the raw screen
// energy plus the state needed by each policy, and the sinks decide.
//
// Storage is structure-of-arrays: the five per-app part columns (cpu,
// camera, gps, wifi, audio) are flat double arrays indexed by interned
// AppIdx (kernel/interner.h), with an active-app list for O(active)
// iteration and reset. The eprof-style routine breakdown is sparse and
// kept per app. Sinks iterate active() — ascending index order after
// seal(), which pins the canonical floating-point summation order
// everywhere.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "energy/fold_tape.h"
#include "kernel/interner.h"
#include "kernel/types.h"
#include "sim/check.h"
#include "sim/time.h"

namespace eandroid::energy {

enum class HwPart { kCpu, kScreen, kCamera, kGps, kWifi, kAudio };

const char* to_string(HwPart part);

/// Per-app energy accumulator, split by hardware part (mJ). No longer the
/// slice's storage (that is SoA now) — the engine uses it to integrate an
/// app's direct energy across slices, where AoS is the natural shape.
struct AppSliceEnergy {
  double cpu_mj = 0.0;
  double camera_mj = 0.0;
  double gps_mj = 0.0;
  double wifi_mj = 0.0;
  double audio_mj = 0.0;
  /// eprof-style breakdown of cpu_mj by routine tag (sums to cpu_mj);
  /// NOT additive with the fields above. Dense by RoutineIdx with a
  /// touched list; an exact 0.0 cell means untouched (all adds are
  /// positive).
  std::vector<double> routine_mj;
  std::vector<kernelsim::RoutineIdx> routines;

  /// `tape` (nullable) logs the add for fold replay.
  void add_routine(kernelsim::RoutineIdx r, double mj,
                   FoldTape* tape = nullptr) {
    if (routine_mj.size() <= r) routine_mj.resize(r + 1, 0.0);
    if (mj == 0.0) return;
    if (routine_mj[r] == 0.0) routines.push_back(r);
    FoldTape::add(routine_mj[r], mj, tape);
  }
  [[nodiscard]] double routine_mj_of(kernelsim::RoutineIdx r) const {
    return r < routine_mj.size() ? routine_mj[r] : 0.0;
  }

  void reset() {
    cpu_mj = camera_mj = gps_mj = wifi_mj = audio_mj = 0.0;
    for (const kernelsim::RoutineIdx r : routines) routine_mj[r] = 0.0;
    routines.clear();
  }

  [[nodiscard]] double sum() const {
    return cpu_mj + camera_mj + gps_mj + wifi_mj + audio_mj;
  }
};

class EnergySlice {
 public:
  /// The five per-app hardware parts: cpu, camera, gps, wifi, audio
  /// (screen is policy, not a per-app cell).
  static constexpr int kParts = 5;

  /// Standalone slice owning a private identifier table (tests, tools).
  EnergySlice()
      : owned_(std::make_shared<kernelsim::IdTable>()), ids_(owned_.get()) {}
  /// Slice sharing the system-wide table (the sampler's persistent one).
  explicit EnergySlice(kernelsim::IdTable& ids) : ids_(&ids) {}

  sim::TimePoint begin;
  sim::TimePoint end;

  /// CPU idle / suspend floor plus unattributed tails: the "Android OS"
  /// row in the battery interface.
  double system_mj = 0.0;

  /// Raw screen energy this window, plus the policy inputs.
  double screen_mj = 0.0;
  bool screen_on = false;
  int brightness = 0;
  kernelsim::Uid foreground;
  /// Screen stayed on only because of wakelocks (user timeout elapsed).
  bool screen_forced_by_wakelock = false;
  /// Holders of screen-keeping wakelocks during this window; populated
  /// only while the screen is forced on (reused buffer).
  std::vector<kernelsim::Uid> screen_wakelock_owners;

  /// Column index of a per-app part; kScreen is not a per-app cell.
  [[nodiscard]] static int col_of(HwPart part) {
    switch (part) {
      case HwPart::kCpu:
        return 0;
      case HwPart::kCamera:
        return 1;
      case HwPart::kGps:
        return 2;
      case HwPart::kWifi:
        return 3;
      case HwPart::kAudio:
        return 4;
      case HwPart::kScreen:
        break;
    }
    EANDROID_CHECK(false, "screen energy is policy, not a per-app cell");
    return -1;
  }

  // --- Per-app cells, write side (touch-tracking) ---
  /// Cell for `uid`, interning it on first sight.
  double& part(kernelsim::Uid uid, HwPart p) {
    return part_at(ids_->app_of(uid), p);
  }
  /// Cell for an already-interned app (the metering hot path).
  double& part_at(kernelsim::AppIdx idx, HwPart p) {
    touch(idx);
    return cols_[col_of(p)][idx];
  }
  /// Adds to an app's routine breakdown (touches the app).
  void add_routine_at(kernelsim::AppIdx idx, kernelsim::RoutineIdx r,
                      double mj) {
    touch(idx);
    RoutineCells& rc = routines_[idx];
    if (rc.mj.size() <= r) rc.mj.resize(r + 1, 0.0);
    if (mj == 0.0) return;
    if (rc.mj[r] == 0.0) rc.touched.push_back(r);
    rc.mj[r] += mj;
  }

  // --- Per-app cells, read side (active apps only) ---
  [[nodiscard]] double cpu_mj(kernelsim::AppIdx idx) const {
    return cols_[0][idx];
  }
  [[nodiscard]] double camera_mj(kernelsim::AppIdx idx) const {
    return cols_[1][idx];
  }
  [[nodiscard]] double gps_mj(kernelsim::AppIdx idx) const {
    return cols_[2][idx];
  }
  [[nodiscard]] double wifi_mj(kernelsim::AppIdx idx) const {
    return cols_[3][idx];
  }
  [[nodiscard]] double audio_mj(kernelsim::AppIdx idx) const {
    return cols_[4][idx];
  }
  /// Canonical part-order sum — the summation order every sink and the
  /// old AoS cell used, so totals stay bit-identical.
  [[nodiscard]] double sum_at(kernelsim::AppIdx idx) const {
    return cpu_mj(idx) + camera_mj(idx) + gps_mj(idx) + wifi_mj(idx) +
           audio_mj(idx);
  }
  /// True when `idx` has cells this slice (the find_at(...) != nullptr
  /// of the AoS era).
  [[nodiscard]] bool active_at(kernelsim::AppIdx idx) const {
    return idx < in_slice_.size() && in_slice_[idx] != 0;
  }
  /// Routine tags `idx` touched this slice (ascending after seal()).
  [[nodiscard]] const std::vector<kernelsim::RoutineIdx>& routines_at(
      kernelsim::AppIdx idx) const {
    return routines_[idx].touched;
  }
  [[nodiscard]] double routine_mj_at(kernelsim::AppIdx idx,
                                     kernelsim::RoutineIdx r) const {
    const RoutineCells& rc = routines_[idx];
    return r < rc.mj.size() ? rc.mj[r] : 0.0;
  }
  /// Apps with energy this slice; ascending index order after seal().
  [[nodiscard]] const std::vector<kernelsim::AppIdx>& active() const {
    return active_;
  }

  /// Touched-delta view: the active list plus the five SoA column base
  /// pointers, hoisted once so the fused fold (energy/pipeline.h) loads
  /// each active app's parts without re-reading the columns. Take it only
  /// AFTER seal(): growth (a first-seen app) reallocates the columns,
  /// invalidating the pointers. Part order matches col_of(). Only cells of
  /// active apps are meaningful to a reader.
  struct TouchedView {
    const std::vector<kernelsim::AppIdx>* active = nullptr;
    const double* parts[kParts] = {};
  };
  [[nodiscard]] TouchedView touched_view() const {
    TouchedView view;
    view.active = &active_;
    for (int col = 0; col < kParts; ++col) view.parts[col] = cols_[col].data();
    return view;
  }

  [[nodiscard]] kernelsim::Uid uid_at(kernelsim::AppIdx idx) const {
    return ids_->uid_of(idx);
  }
  [[nodiscard]] kernelsim::IdTable& ids() { return *ids_; }
  [[nodiscard]] const kernelsim::IdTable& ids() const { return *ids_; }

  /// Clears the slice for the next window without releasing storage.
  void reset(sim::TimePoint new_begin, sim::TimePoint new_end) {
    begin = new_begin;
    end = new_end;
    system_mj = screen_mj = 0.0;
    screen_on = false;
    brightness = 0;
    foreground = kernelsim::Uid{};
    screen_forced_by_wakelock = false;
    screen_wakelock_owners.clear();
    for (const kernelsim::AppIdx idx : active_) {
      for (auto& col : cols_) col[idx] = 0.0;
      RoutineCells& rc = routines_[idx];
      for (const kernelsim::RoutineIdx r : rc.touched) rc.mj[r] = 0.0;
      rc.touched.clear();
      in_slice_[idx] = 0;
    }
    active_.clear();
  }

  /// Fixes the canonical iteration order (ascending app index, ascending
  /// routine index per app). Sinks rely on this for bit-stable sums.
  void seal() {
    std::sort(active_.begin(), active_.end());
    for (const kernelsim::AppIdx idx : active_) {
      std::sort(routines_[idx].touched.begin(), routines_[idx].touched.end());
    }
  }

  [[nodiscard]] sim::Duration length() const { return end - begin; }
  [[nodiscard]] double total_mj() const {
    double total = system_mj + screen_mj;
    for (const kernelsim::AppIdx idx : active_) total += sum_at(idx);
    return total;
  }

 private:
  /// Per-app routine breakdown cells; dense by RoutineIdx with a touched
  /// list, exactly the AppSliceEnergy scheme.
  struct RoutineCells {
    std::vector<double> mj;
    std::vector<kernelsim::RoutineIdx> touched;
  };

  void touch(kernelsim::AppIdx idx) {
    if (in_slice_.size() <= idx) {
      in_slice_.resize(idx + 1, 0);
      routines_.resize(idx + 1);
    }
    if (cols_[0].size() <= idx) {
      for (auto& col : cols_) col.resize(idx + 1, 0.0);
    }
    if (!in_slice_[idx]) {
      in_slice_[idx] = 1;
      active_.push_back(idx);
    }
  }

  std::shared_ptr<kernelsim::IdTable> owned_;  // standalone slices only
  kernelsim::IdTable* ids_;
  /// SoA part columns, dense by AppIdx.
  std::vector<double> cols_[kParts];
  std::vector<RoutineCells> routines_;  // dense by AppIdx
  std::vector<std::uint8_t> in_slice_;  // cell touched this slice?
  std::vector<kernelsim::AppIdx> active_;
};

/// An observer that consumes whole slices through EnergySampler::add_sink
/// (Eprof, the timeline, the power-signature detector). The built-in
/// profilers fold through the MeteringPipeline instead.
class AccountingSink {
 public:
  virtual ~AccountingSink() = default;
  virtual void on_slice(const EnergySlice& slice) = 0;
};

}  // namespace eandroid::energy
