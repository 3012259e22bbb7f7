// CPU scheduler model with per-uid utilization accounting.
//
// The energy layer needs exactly what /proc gives PowerTutor on a phone:
// total CPU utilization over a sampling window plus each app's share of it.
// We model a single-core CPU where each live process contributes a steady
// "duty" in [0,1] (long-running workloads: video encoding, service compute)
// plus one-shot bursts of CPU time (IPC handling, component launches).
// Demand beyond one core saturates and shares proportionally.
//
// When the system is suspended (deep sleep), processes are halted and no
// CPU time accrues — matching Android's default-suspend policy the paper
// describes; a partial wakelock keeps the CPU running.
//
// Accounting is dense: uids and routine tags are interned through an
// IdTable (kernel/interner.h) and the per-window accrual lives in flat
// (app, routine) cells with a touched-cell list, so a sampling window
// costs O(active cells) and allocates nothing in steady state. Cells are
// iterated in ascending (app, routine) order, fixing one canonical
// floating-point summation order for the window's total demand. Loads
// live in a vector ascending by handle id, so loads that share a cell
// accrue in creation order whatever the standard library's hashing.
//
// Change-driven sampling: the scheduler counts its own mutations, and a
// window that would recompute the previous one bit for bit is not
// recomputed (see sample_window()).
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "kernel/interner.h"
#include "kernel/process_table.h"
#include "kernel/types.h"
#include "sim/simulator.h"

namespace eandroid::kernelsim {

/// Handle identifying a steady CPU load owned by a process.
struct LoadHandle {
  std::uint64_t id = 0;
  [[nodiscard]] constexpr bool valid() const { return id != 0; }
};

/// Utilization for one sampling window, as read by the energy sampler.
/// Entries are dense (interned indices) and sorted ascending, so
/// consumers accumulate in canonical order without hashing.
struct CpuWindow {
  double total_utilization = 0.0;  // [0, 1]

  struct Share {
    Uid uid;
    AppIdx app = 0;
    double share = 0.0;
  };
  struct RoutineShare {
    AppIdx app = 0;
    RoutineIdx routine = 0;
    double share = 0.0;
  };
  /// Per-app share of total_utilization, ascending by app index; shares
  /// sum to total_utilization.
  std::vector<Share> shares;
  /// Routine-level split, ascending by (app, routine); an app's entries
  /// sum to its share. Bursts land under "ipc".
  std::vector<RoutineShare> routine_shares;

  /// Convenience lookup for tests and cold paths.
  [[nodiscard]] double share_of(Uid uid) const {
    for (const Share& s : shares) {
      if (s.uid == uid) return s.share;
    }
    return 0.0;
  }

  void clear() {
    total_utilization = 0.0;
    shares.clear();
    routine_shares.clear();
  }
};

class CpuScheduler {
 public:
  /// `cores` — number of identical cores; demand saturates at this many
  /// cores' worth of work and utilization is normalized to [0, 1] over
  /// the whole package. `ids` — shared identifier table; when null the
  /// scheduler owns a private one (standalone tests).
  CpuScheduler(sim::Simulator& sim, ProcessTable& processes, int cores = 1,
               IdTable* ids = nullptr);

  [[nodiscard]] int cores() const { return cores_; }
  [[nodiscard]] IdTable& ids() { return *ids_; }

  /// Adds a steady load of `duty` (fraction of one core) owned by `pid`.
  /// Loads of dead processes stop counting automatically. `routine` tags
  /// the load for eprof-style per-routine accounting.
  LoadHandle add_load(Pid pid, double duty, std::string_view routine = "main");

  /// Adjusts an existing load's duty.
  void set_duty(LoadHandle h, double duty);

  void remove_load(LoadHandle h);

  /// Charges a one-shot burst of `cpu_time` to `pid`, consumed by the next
  /// sampling window (e.g. Binder transaction handling).
  void charge_burst(Pid pid, sim::Duration cpu_time);

  /// True while the system is in deep sleep; set by the power manager.
  void set_suspended(bool suspended);
  [[nodiscard]] bool suspended() const { return suspended_; }

  /// Closes the sampling window that began at the previous call (or at
  /// construction) and returns its utilization breakdown. Bursts are
  /// consumed; steady loads persist. The returned reference is to a
  /// reused buffer, valid until the next call.
  ///
  /// The previous window is returned unchanged (window_reused()) when all
  /// of these hold: no mutation since that sample; that window was itself
  /// mutation-free; the window length is the same; and every load with a
  /// duty had resolved to a live process. The last one reads process-table
  /// state the scheduler does not own (a load registered before its
  /// process spawns resolves later), so it is checked, not counted.
  const CpuWindow& sample_window();

  /// True when the last sample_window() returned the previous window
  /// without recomputing it.
  [[nodiscard]] bool window_reused() const { return window_reused_; }

  /// Instantaneous utilization from steady loads only (no window needed).
  [[nodiscard]] double instantaneous_utilization() const;

 private:
  struct Load {
    std::uint64_t id;
    Pid pid;
    double duty;
    AppIdx app;
    RoutineIdx routine;
  };

  /// The load with handle `h`, or loads_.end() once removed.
  std::vector<Load>::iterator find_load(LoadHandle h);

  /// Accrues busy time at the current loads up to now; called before any
  /// state mutation so mid-window changes are accounted exactly. Clears
  /// loads_live_ when it skips a load with a duty for want of a live
  /// process.
  void integrate();

  /// Accrues up to now, then counts a call that changes what the open
  /// window accrues. The accrual alone would count: it splits the
  /// window's accrual, which moves the cells' last bits.
  void mutate() {
    integrate();
    ++mutations_;
  }

  /// Adds `core_seconds` to the (app, routine) accrual cell, tracking it
  /// in the touched list on first touch.
  void add_cell(AppIdx app, RoutineIdx routine, double core_seconds);

  [[nodiscard]] static std::uint64_t pack_cell(AppIdx app,
                                               RoutineIdx routine) {
    return (static_cast<std::uint64_t>(app) << 32) | routine;
  }

  RoutineIdx ipc_routine();

  sim::Simulator& sim_;
  ProcessTable& processes_;
  std::unique_ptr<IdTable> owned_ids_;
  IdTable* ids_;
  /// Steady loads, ascending by handle id: ids only grow, so push_back
  /// keeps the order and lookups binary-search.
  std::vector<Load> loads_;

  /// Time-weighted core-seconds accrued since the window started,
  /// [app][routine]; 0.0 = untouched (all accruals are positive).
  std::vector<std::vector<double>> accrued_;
  /// Cells with nonzero accrual, packed (app << 32 | routine).
  std::vector<std::uint64_t> touched_;
  /// Pending one-shot burst core-time per app, in microseconds.
  std::vector<std::int64_t> burst_micros_;
  std::vector<AppIdx> burst_touched_;

  CpuWindow window_;
  RoutineIdx ipc_routine_ = kNoIdx;

  sim::TimePoint accrue_mark_;
  sim::TimePoint window_start_;
  int cores_ = 1;
  bool suspended_ = false;
  std::uint64_t next_load_ = 1;

  /// Mutation count, and its value at the last sample_window().
  std::uint64_t mutations_ = 0;
  std::uint64_t sampled_mutations_ = 0;
  /// Length of the last window sample_window() returned.
  sim::Duration last_window_{0};
  /// The last computed window had no mutation and every load with a duty
  /// resolved to a live process: an unchanged next window equals it.
  bool window_clean_ = false;
  bool window_reused_ = false;
  /// Written by integrate(); see there.
  bool loads_live_ = true;
};

}  // namespace eandroid::kernelsim
