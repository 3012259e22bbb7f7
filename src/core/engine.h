// EAndroidEngine: the enhanced energy accounting module (paper §IV-B).
//
// Consumes the same energy slices as the stock profilers (through the
// MeteringPipeline), plus the open-window set from the WindowTracker,
// and maintains a collateral energy map per app. Algorithm 1's chain
// handling is realized as a transitive closure over the open windows at
// each slice:
//
//   * app->app windows (activity, interrupt, service) form edges; the
//     energy the driven app consumes during a slice is superimposed onto
//     every app that currently reaches it through open windows ("charge
//     the energy drained by C and the screen to A" in Fig 7);
//   * screen windows (brightness, wakelock) attach collateral *screen*
//     energy to their driver, which then flows up the same closure;
//   * closure runs per-slice, so "only the part of energy consumption
//     during the attack lifecycle" is charged, multi-collateral windows
//     on the same pair dedupe naturally, and when all windows close "the
//     relation ... is broken and no extra energy would be charged";
//   * service-map inheritance (a driver importing services its driven app
//     had already bound) is the closure composing driven->service edges.
//
// Hot-path layout: every accumulator is dense over interned AppIdx
// (kernel/interner.h), and the window-derived structures — edge
// adjacency, driver list, screen/wakelock window lists, and the
// per-driver reachability closures — are cached and keyed on the
// tracker's generation counter, so the common slice where no window
// opened or closed recomputes nothing and allocates nothing. Closures
// are kept sorted ascending, which fixes the floating-point order of
// every shared accumulation for the bitwise-determinism contract.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/entity.h"
#include "core/window_tracker.h"
#include "energy/pipeline.h"
#include "energy/slice.h"
#include "framework/system_server.h"
#include "kernel/interner.h"

namespace eandroid::core {

struct EngineConfig {
  /// Ablation: when false only direct windows charge (no chains).
  bool chain_propagation = true;
};

class EAndroidEngine : public energy::SliceFoldStage {
 public:
  EAndroidEngine(framework::SystemServer& server, WindowTracker& tracker,
                 EngineConfig config = {});

  /// Registers the engine on `pipeline`: its direct store receives the
  /// fused cell pass, and the two stages below bracket it.
  void attach_to(energy::MeteringPipeline& pipeline) {
    pipeline.set_engine(&direct_store_, this);
  }

  // --- MeteringPipeline stages (energy/pipeline.h) ---
  /// Pre-cell-pass stage: rebuilds the window-derived structures when the
  /// tracker generation moved or reset() ran (hoisted out of the fold so
  /// the cell pass runs against settled, pre-sized state). Returns true
  /// when nothing was rebuilt.
  bool prepare_slice(const energy::EnergySlice& slice) override;
  /// Post-cell-pass stage: the system row and the collateral attribution
  /// (paper Algorithm 1); emits the engine.collateral trace marks and the
  /// engine.collateral_*_mj gauge observations. Logs all of it on `tape`
  /// when the pipeline records.
  void fold_slice(const energy::EnergySlice& slice,
                  energy::FoldTape* tape) override;

  // --- Accounting results ---
  /// Energy mechanically attributed to the app itself ("original energy").
  [[nodiscard]] double direct_mj(kernelsim::Uid uid) const;
  /// Component breakdown of the app's own energy (cpu/camera/gps/wifi/
  /// audio), for the revised-PowerTutor style of Fig 8. The pointer is
  /// invalidated by the next slice.
  [[nodiscard]] const energy::AppSliceEnergy* direct_breakdown(
      kernelsim::Uid uid) const;
  /// One routine's share of the app's direct CPU energy (eprof view).
  [[nodiscard]] double direct_routine_mj(kernelsim::Uid uid,
                                         std::string_view routine) const;
  /// Sum of the app's collateral map.
  [[nodiscard]] double collateral_mj(kernelsim::Uid uid) const;
  /// One collateral map entry.
  [[nodiscard]] double collateral_from(kernelsim::Uid driver,
                                       Entity entity) const;
  /// The app's collateral inventory (entity, mJ), screen entry first,
  /// then app entries in first-charged order.
  [[nodiscard]] std::vector<std::pair<Entity, double>> collateral_entries(
      kernelsim::Uid uid) const;
  /// Screen energy not claimed by any collateral window (the neutral
  /// "Screen" row, as in stock Android).
  [[nodiscard]] double screen_row_mj() const { return screen_row_mj_; }
  /// Screen energy moved out of the neutral Screen row into drivers'
  /// collateral maps (first-hand attribution only, before chain
  /// superimposition duplicates it). screen_row + attributed_screen is
  /// always the device's total screen energy, so
  ///   screen_row + attributed_screen + system_row + sum(direct)
  /// re-sums exactly to true_total.
  [[nodiscard]] double attributed_screen_mj() const {
    return attributed_screen_mj_;
  }
  [[nodiscard]] double system_row_mj() const { return system_row_mj_; }
  /// Ground-truth battery drain while accounting (percent denominator).
  [[nodiscard]] double true_total_mj() const {
    return direct_store_.true_total_mj;
  }

  /// Every uid with direct or collateral energy on record.
  [[nodiscard]] std::vector<kernelsim::Uid> known_uids() const;

  [[nodiscard]] const EngineConfig& config() const { return config_; }
  void reset();

 private:
  /// Per-driver collateral map, dense over the driven apps' indices.
  struct DriverMap {
    double screen_mj = 0.0;
    std::vector<double> from_app;  // by AppIdx; 0.0 = untouched
    std::vector<kernelsim::AppIdx> from_touched;  // first-charged order
  };

  /// Rebuilds the window-derived structures from the tracker's open set;
  /// also pre-sizes the hot-fold accumulators and scratch to the
  /// interner's population, so steady-state slices never hit a resize
  /// branch.
  void rebuild_window_structures();
  /// Apps reachable from `root` through open app->app windows (root
  /// excluded), sorted ascending; memoized until the window set changes.
  const std::vector<kernelsim::AppIdx>& closure_of(kernelsim::AppIdx root);

  [[nodiscard]] const DriverMap* map_at(kernelsim::AppIdx idx) const {
    return idx < has_map_.size() && has_map_[idx] ? &maps_[idx] : nullptr;
  }
  [[nodiscard]] double screen_coll_of(kernelsim::AppIdx idx) const {
    return idx < screen_coll_.size() ? screen_coll_[idx] : 0.0;
  }

  framework::SystemServer& server_;
  WindowTracker& tracker_;
  EngineConfig config_;
  kernelsim::IdTable& ids_;

  // --- Accumulators (dense by AppIdx) ---
  /// Direct energy + battery ground truth, in the energy-layer shape the
  /// pipeline folds directly (energy/pipeline.h).
  energy::DirectStore direct_store_;
  std::vector<DriverMap> maps_;
  std::vector<std::uint8_t> has_map_;
  double screen_row_mj_ = 0.0;
  double attributed_screen_mj_ = 0.0;
  double system_row_mj_ = 0.0;

  // --- Window-derived caches, valid while cached_generation_ matches ---
  std::uint64_t cached_generation_ = 0;
  std::vector<std::vector<kernelsim::AppIdx>> adj_;  // rows sorted unique
  std::vector<kernelsim::AppIdx> adj_nodes_;         // rows in use
  std::vector<kernelsim::AppIdx> edge_drivers_;      // sorted unique
  std::vector<const Window*> screen_windows_;        // kScreen, by id
  std::vector<kernelsim::AppIdx> wakelock_holders_;  // sorted unique
  std::vector<std::vector<kernelsim::AppIdx>> closure_;
  std::vector<std::uint8_t> closure_valid_;

  // --- Per-slice scratch (cleared in O(touched), never freed) ---
  std::vector<double> screen_coll_;
  std::vector<kernelsim::AppIdx> screen_coll_touched_;
  std::vector<double> delta_scratch_;
  std::vector<kernelsim::AppIdx> delta_touched_;
  std::vector<kernelsim::AppIdx> drivers_scratch_;
  std::vector<kernelsim::AppIdx> bfs_stack_;
  std::vector<std::uint8_t> bfs_seen_;

  // --- Observability ids, interned/registered at construction so the
  // per-slice trace/metric calls stay allocation-free ---
  std::uint32_t coll_trace_name_ = 0;
  obs::MetricId coll_wakelock_metric_ = 0;
  obs::MetricId coll_brightness_metric_ = 0;
  obs::MetricId coll_chained_metric_ = 0;
};

}  // namespace eandroid::core
