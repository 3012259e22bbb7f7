// MeteringPipeline: the fused fold stage of the metering tick.
//
// One walk over the sealed slice's active apps feeds every built-in
// accumulator: the touched view hoists the slice's five SoA column base
// pointers, each active app's five parts are loaded once, and the walk
// adds them into BatteryStats (one part-order sum per app), PowerTutor
// (five part columns) and the engine's DirectStore (part and routine
// rows plus the battery ground truth). A metering tick has one or two
// active apps, so the walk costs O(active), not O(apps ever seen).
//
// Fold-order contract: every accumulator receives its operands in one
// fixed order — per-part adds in part order, apps ascending (seal()'s
// canonical order), and the engine's battery ground truth as the same
// running sum total_mj() computes (system+screen first, then apps
// ascending) — so digests, trace bytes and engine reports are bitwise
// reproducible.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "energy/slice.h"
#include "obs/metrics.h"

namespace eandroid::energy {

class BatteryStats;
class PowerTutor;

/// Dense per-app direct-energy store: the E-Android engine's "original
/// energy" accumulator, lifted into the energy layer so the fused cell
/// pass can fold into it without a core-layer dependency (core links
/// energy, not the other way around).
struct DirectStore {
  /// Accumulated direct energy, dense by AppIdx.
  std::vector<AppSliceEnergy> by_app;
  /// Ground-truth battery drain while accounting: accumulated per slice
  /// with total_mj()'s exact association — system+screen seed the running
  /// sum, then apps add in ascending index order.
  double true_total_mj = 0.0;

  void ensure(std::size_t apps) {
    if (by_app.size() < apps) by_app.resize(apps);
  }
  void clear() {
    by_app.clear();
    true_total_mj = 0.0;
  }
};

/// A pipeline stage with per-slice work outside the fused cell loop (the
/// E-Android engine's collateral accounting implements this; one virtual
/// call per slice, never per cell).
class SliceFoldStage {
 public:
  virtual ~SliceFoldStage() = default;
  /// Runs BEFORE the fused cell pass: rebuild window-derived structures,
  /// pre-size accumulators, so the cell loop runs against settled state.
  virtual void prepare_slice(const EnergySlice& slice) = 0;
  /// Runs AFTER the fused cell pass: the per-slice folds (collateral
  /// attribution, screen/system rows).
  virtual void fold_slice(const EnergySlice& slice) = 0;
};

class MeteringPipeline {
 public:
  /// `metrics` (nullable) registers the energy.pipeline.* counters;
  /// metrics never move a bit of any digest.
  explicit MeteringPipeline(obs::MetricsRegistry* metrics = nullptr);

  MeteringPipeline(const MeteringPipeline&) = delete;
  MeteringPipeline& operator=(const MeteringPipeline&) = delete;

  // --- Accumulator registration (all optional; null = stage skipped) ---
  void set_battery_stats(BatteryStats* bs) { battery_stats_ = bs; }
  void set_power_tutor(PowerTutor* pt) { power_tutor_ = pt; }
  /// Engine registration: `direct` receives the fused per-cell fold (plus
  /// the running battery ground truth); `stage` brackets the cell pass
  /// with the window rebuild and the collateral fold. Pass both or
  /// neither.
  void set_engine(DirectStore* direct, SliceFoldStage* stage) {
    direct_ = direct;
    engine_stage_ = stage;
  }

  /// One pass over the sealed slice: prepare stage, the fused walk over
  /// the active apps, then the per-slice tails (engine collateral,
  /// BatteryStats, PowerTutor).
  void run(const EnergySlice& slice);

  [[nodiscard]] std::uint64_t slices_folded() const { return folds_; }
  [[nodiscard]] std::uint64_t cells_folded() const { return cells_; }

  /// TEST-ONLY fault seam: while `part` is in [0, 5), every pipeline's
  /// fused sparse fold treats that part column as zero in the engine's
  /// direct store and battery ground truth — a deliberate one-column
  /// metering slip, used to prove the scenario fuzzer's invariant oracle
  /// catches and shrinks real accounting bugs
  /// (tests/fuzz/injected_bug_test.cpp). -1 (the default) disarms it.
  /// Process-global so the fault reaches pipelines constructed deep
  /// inside oracle legs; tests must restore -1 before passing.
  static void set_test_skip_part(int part) {
    test_skip_part_.store(part, std::memory_order_relaxed);
  }
  [[nodiscard]] static int test_skip_part() {
    return test_skip_part_.load(std::memory_order_relaxed);
  }

 private:
  static std::atomic<int> test_skip_part_;

  BatteryStats* battery_stats_ = nullptr;
  PowerTutor* power_tutor_ = nullptr;
  DirectStore* direct_ = nullptr;
  SliceFoldStage* engine_stage_ = nullptr;

  std::uint64_t folds_ = 0;
  std::uint64_t cells_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::MetricId folds_metric_ = 0;
  obs::MetricId cells_metric_ = 0;
};

}  // namespace eandroid::energy
