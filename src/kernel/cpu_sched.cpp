#include "kernel/cpu_sched.h"

#include <algorithm>

namespace eandroid::kernelsim {

CpuScheduler::CpuScheduler(sim::Simulator& sim, ProcessTable& processes,
                           int cores, IdTable* ids)
    : sim_(sim),
      processes_(processes),
      owned_ids_(ids == nullptr ? std::make_unique<IdTable>() : nullptr),
      ids_(ids == nullptr ? owned_ids_.get() : ids),
      accrue_mark_(sim.now()),
      window_start_(sim.now()),
      cores_(cores < 1 ? 1 : cores) {
  // Dying processes stop accruing at the instant of death, not at the
  // next window boundary. The table has already marked the pid dead when
  // observers run, so the victim's last stretch is accrued explicitly.
  processes_.add_death_observer([this](const ProcessInfo& info) {
    const double dt = (sim_.now() - accrue_mark_).seconds();
    mutate();  // accrues the live loads + advances the mark
    for (const Load& load : loads_) {
      if (load.pid != info.pid) continue;
      if (dt > 0.0 && !suspended_ && load.duty > 0.0) {
        add_cell(ids_->app_of(info.uid), load.routine, load.duty * dt);
      }
    }
    std::erase_if(loads_,
                  [&info](const Load& load) { return load.pid == info.pid; });
  });
}

std::vector<CpuScheduler::Load>::iterator CpuScheduler::find_load(
    LoadHandle h) {
  auto it = std::lower_bound(
      loads_.begin(), loads_.end(), h.id,
      [](const Load& load, std::uint64_t id) { return load.id < id; });
  return it != loads_.end() && it->id == h.id ? it : loads_.end();
}

RoutineIdx CpuScheduler::ipc_routine() {
  if (ipc_routine_ == kNoIdx) ipc_routine_ = ids_->routine_of("ipc");
  return ipc_routine_;
}

void CpuScheduler::add_cell(AppIdx app, RoutineIdx routine,
                            double core_seconds) {
  if (accrued_.size() <= app) accrued_.resize(app + 1);
  std::vector<double>& row = accrued_[app];
  if (row.size() <= routine) row.resize(routine + 1, 0.0);
  double& cell = row[routine];
  // All accruals are strictly positive, so an exact 0.0 means untouched.
  if (cell == 0.0) touched_.push_back(pack_cell(app, routine));
  cell += core_seconds;
}

void CpuScheduler::integrate() {
  const sim::TimePoint now = sim_.now();
  const double dt = (now - accrue_mark_).seconds();
  accrue_mark_ = now;
  if (dt <= 0.0 || suspended_) return;
  for (Load& load : loads_) {
    if (load.duty <= 0.0) continue;
    if (load.app == kNoIdx) {
      // The load was registered before its process existed; resolve once
      // the process shows up, like the seed's per-integrate lookup did.
      const ProcessInfo* info = processes_.find(load.pid);
      if (info == nullptr) {
        loads_live_ = false;
        continue;
      }
      load.app = ids_->app_of(info->uid);
    }
    if (!processes_.alive(load.pid)) {
      loads_live_ = false;
      continue;
    }
    add_cell(load.app, load.routine, load.duty * dt);
  }
}

LoadHandle CpuScheduler::add_load(Pid pid, double duty,
                                  std::string_view routine) {
  mutate();
  const LoadHandle h{next_load_++};
  const ProcessInfo* info = processes_.find(pid);
  const AppIdx app = info == nullptr ? kNoIdx : ids_->app_of(info->uid);
  loads_.push_back(Load{h.id, pid, std::clamp(duty, 0.0, 1.0), app,
                        ids_->routine_of(routine)});
  return h;
}

void CpuScheduler::set_duty(LoadHandle h, double duty) {
  mutate();
  if (auto it = find_load(h); it != loads_.end()) {
    it->duty = std::clamp(duty, 0.0, 1.0);
  }
}

void CpuScheduler::remove_load(LoadHandle h) {
  mutate();
  if (auto it = find_load(h); it != loads_.end()) loads_.erase(it);
}

void CpuScheduler::charge_burst(Pid pid, sim::Duration cpu_time) {
  if (suspended_) return;  // halted processes cannot run
  const ProcessInfo* info = processes_.find(pid);
  if (info == nullptr) return;
  if (cpu_time <= sim::Duration(0)) return;
  ++mutations_;  // nothing to accrue: the burst lands at sample time
  const AppIdx app = ids_->app_of(info->uid);
  if (burst_micros_.size() <= app) burst_micros_.resize(app + 1, 0);
  if (burst_micros_[app] == 0) burst_touched_.push_back(app);
  burst_micros_[app] += cpu_time.micros();
}

void CpuScheduler::set_suspended(bool suspended) {
  mutate();
  suspended_ = suspended;
}

double CpuScheduler::instantaneous_utilization() const {
  if (suspended_) return 0.0;
  double demand = 0.0;
  for (const Load& load : loads_) {
    if (processes_.alive(load.pid)) demand += load.duty;
  }
  return std::min(1.0, demand / cores_);
}

const CpuWindow& CpuScheduler::sample_window() {
  const sim::TimePoint now = sim_.now();
  const sim::Duration window = now - window_start_;
  const bool quiet = mutations_ == sampled_mutations_;
  window_reused_ = quiet && window_clean_ && window == last_window_;
  if (window_reused_) {
    // Nothing accrued since the last sample (no integrate() ran), and a
    // full pass would add the same duty * dt per cell in the same order.
    accrue_mark_ = now;
    window_start_ = now;
    return window_;
  }
  loads_live_ = true;
  integrate();
  window_start_ = now;
  sampled_mutations_ = mutations_;
  last_window_ = window;
  window_clean_ = quiet && loads_live_ && window > sim::Duration(0);

  window_.clear();
  if (window <= sim::Duration(0)) {
    // Degenerate window: discard what little accrued.
    for (const std::uint64_t key : touched_) {
      accrued_[key >> 32][key & 0xffffffffu] = 0.0;
    }
    touched_.clear();
    for (const AppIdx app : burst_touched_) burst_micros_[app] = 0;
    burst_touched_.clear();
    return window_;
  }
  const double window_s = window.seconds();

  // Fold pending bursts into the (app, "ipc") cells: a burst of t
  // core-time spread over the window is t/window of duty, i.e. t
  // core-seconds added to the cell. Bursts survive
  // suspension-at-sample-time — they were charged while awake.
  for (const AppIdx app : burst_touched_) {
    add_cell(app, ipc_routine(),
             static_cast<double>(burst_micros_[app]) / 1e6);
    burst_micros_[app] = 0;
  }
  burst_touched_.clear();

  if (touched_.empty()) return window_;

  // Canonical order: ascending (app, routine). The packed key sorts
  // exactly that way, and it fixes the floating-point summation order of
  // total demand for the determinism contract.
  std::sort(touched_.begin(), touched_.end());

  // Demand per cell and per app: time-weighted steady duties (exact
  // under mid-window changes, suspend, and process death) plus the
  // folded bursts. Shares are emitted unscaled first, then normalized.
  double total_demand = 0.0;
  AppIdx current = kNoIdx;
  double app_demand = 0.0;
  for (const std::uint64_t key : touched_) {
    const AppIdx app = static_cast<AppIdx>(key >> 32);
    const RoutineIdx routine = static_cast<RoutineIdx>(key & 0xffffffffu);
    double& cell = accrued_[app][routine];
    const double duty = cell / window_s;
    cell = 0.0;
    if (duty <= 0.0) continue;
    if (app != current) {
      if (current != kNoIdx && app_demand > 0.0) {
        window_.shares.push_back({ids_->uid_of(current), current, app_demand});
      }
      current = app;
      app_demand = 0.0;
    }
    window_.routine_shares.push_back({app, routine, duty});
    app_demand += duty;
    total_demand += duty;
  }
  if (current != kNoIdx && app_demand > 0.0) {
    window_.shares.push_back({ids_->uid_of(current), current, app_demand});
  }
  touched_.clear();

  if (total_demand <= 0.0) {
    window_.clear();
    return window_;
  }

  // Saturate at the package's core count; apps share proportionally.
  // Utilization is normalized over all cores so the power model's input
  // stays in [0, 1].
  window_.total_utilization = std::min(1.0, total_demand / cores_);
  const double scale = window_.total_utilization / total_demand;
  for (CpuWindow::Share& s : window_.shares) s.share *= scale;
  for (CpuWindow::RoutineShare& rs : window_.routine_shares) rs.share *= scale;
  return window_;
}

}  // namespace eandroid::kernelsim
