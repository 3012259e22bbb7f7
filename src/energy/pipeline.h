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
// Fold replay: most ticks keep their slice (energy/sampler.h), and a
// kept slice folded against unchanged window state makes the same adds
// as the fold before it. A fold counts as unchanged when the sampler
// kept the slice, the engine stage reports its window state settled (no
// rebuild, no reset), no BatteryStats/PowerTutor reset happened and the
// test-only skip seam holds its value. The first unchanged fold in a
// row runs in full; the second runs in full and records a FoldTape
// (energy/fold_tape.h); from the third on the pipeline replays the tape:
// the same adds in the same order, the engine's collateral trace marks
// stamped with the tick's time, its gauge observations, and the
// energy.pipeline.* counters. Any change drops the row back to a full
// fold. Recording keeps a full fold of distance from the fold after a
// change, which may grow vectors, insert PowerTutor's screen row or push
// touched lists — any of them would move a recorded address.
//
// Fold-order contract: every accumulator receives its operands in one
// fixed order — per-part adds in part order, apps ascending (seal()'s
// canonical order), and the engine's battery ground truth as the same
// running sum total_mj() computes (system+screen first, then apps
// ascending) — so digests, trace bytes and engine reports are bitwise
// reproducible, replayed or not.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "energy/fold_tape.h"
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
  /// Returns true when everything fold_slice reads besides the slice is
  /// as it was at the previous slice (nothing rebuilt, nothing reset).
  virtual bool prepare_slice(const EnergySlice& slice) = 0;
  /// Runs AFTER the fused cell pass: the per-slice folds (collateral
  /// attribution, screen/system rows), each effect through a FoldTape
  /// helper with `tape` (null unless the pipeline records this fold).
  virtual void fold_slice(const EnergySlice& slice, FoldTape* tape) = 0;
};

class MeteringPipeline {
 public:
  /// `metrics` (nullable) registers the energy.pipeline.* counters;
  /// metrics never move a bit of any digest.
  explicit MeteringPipeline(obs::MetricsRegistry* metrics = nullptr);

  MeteringPipeline(const MeteringPipeline&) = delete;
  MeteringPipeline& operator=(const MeteringPipeline&) = delete;

  // --- Accumulator registration (all optional; null = stage skipped) ---
  void set_battery_stats(BatteryStats* bs) {
    battery_stats_ = bs;
    unchanged_folds_ = 0;
  }
  void set_power_tutor(PowerTutor* pt) {
    power_tutor_ = pt;
    unchanged_folds_ = 0;
  }
  /// Engine registration: `direct` receives the fused per-cell fold (plus
  /// the running battery ground truth); `stage` brackets the cell pass
  /// with the window rebuild and the collateral fold. Pass both or
  /// neither.
  void set_engine(DirectStore* direct, SliceFoldStage* stage) {
    direct_ = direct;
    engine_stage_ = stage;
    unchanged_folds_ = 0;
  }

  /// Folds the sealed slice: prepare stage, the fused walk over the
  /// active apps, then the per-slice tails (engine collateral,
  /// BatteryStats, PowerTutor) — or a replay of the recorded fold (file
  /// comment). `slice_kept` vouches that `slice` is the object of the
  /// previous run with nothing but begin/end moved (the sampler's kept
  /// tick); a replay stamps its marks with `slice.end`.
  void run(const EnergySlice& slice, bool slice_kept = false);

  /// Every run, replayed or not.
  [[nodiscard]] std::uint64_t slices_folded() const { return folds_; }
  [[nodiscard]] std::uint64_t cells_folded() const { return cells_; }
  /// Runs that replayed the recorded fold.
  [[nodiscard]] std::uint64_t folds_replayed() const { return replayed_; }
  /// Accumulator adds one replay makes (0 while nothing is recorded).
  [[nodiscard]] std::size_t replay_adds() const {
    return unchanged_folds_ == kReplay ? tape_.adds() : 0;
  }

  /// TEST-ONLY fault seam: while `part` is in [0, 5), every pipeline's
  /// fused sparse fold treats that part column as zero in the engine's
  /// direct store and battery ground truth (a change of the seam counts
  /// as a change for fold replay) — a deliberate one-column
  /// metering slip, used to prove the scenario fuzzer's invariant oracle
  /// catches and shrinks real accounting bugs
  /// (tests/fuzz/injected_bug_test.cpp). -1 (the default) disarms it.
  /// Process-global so the fault reaches pipelines constructed deep
  /// inside oracle legs; tests must restore -1 before passing.
  static void set_test_skip_part(int part) {
    test_skip_part_.store(part, std::memory_order_relaxed);
  }

 private:
  /// `unchanged_folds_` at which a run records the tape, and from which
  /// runs replay it.
  static constexpr int kRecord = 2;
  static constexpr int kReplay = 3;

  /// The full fold; logs its effects on `tape` when non-null.
  void fold(const EnergySlice& slice, int skip, FoldTape* tape);
  /// Resets of the registered BatteryStats and PowerTutor so far.
  [[nodiscard]] std::uint64_t accumulator_resets() const;

  static std::atomic<int> test_skip_part_;

  BatteryStats* battery_stats_ = nullptr;
  PowerTutor* power_tutor_ = nullptr;
  DirectStore* direct_ = nullptr;
  SliceFoldStage* engine_stage_ = nullptr;

  // --- Fold replay ---
  FoldTape tape_;
  /// Runs in a row that found the previous run's inputs unchanged,
  /// capped at kReplay: below kRecord the fold runs in full, at kRecord
  /// it runs in full and records the tape, at kReplay it replays it.
  int unchanged_folds_ = 0;
  /// The skip seam and accumulator_resets() at the previous run.
  int last_skip_ = -1;
  std::uint64_t last_resets_ = 0;

  std::uint64_t folds_ = 0;
  std::uint64_t cells_ = 0;
  std::uint64_t replayed_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::MetricId folds_metric_ = 0;
  obs::MetricId cells_metric_ = 0;
};

}  // namespace eandroid::energy
