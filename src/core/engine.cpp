#include "core/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace eandroid::core {

namespace {
using kernelsim::AppIdx;
using kernelsim::kNoIdx;

void sort_unique(std::vector<AppIdx>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}
}  // namespace

EAndroidEngine::EAndroidEngine(framework::SystemServer& server,
                               WindowTracker& tracker, EngineConfig config)
    : server_(server), tracker_(tracker), config_(config), ids_(server.ids()) {
  auto& sim = server_.simulator();
  if (auto* tr = sim.trace())
    coll_trace_name_ = tr->intern("engine.collateral");
  if (auto* m = sim.metrics()) {
    // Collateral mJ by edge kind (paper Fig 5's window taxonomy): screen
    // energy claimed through leaked-wakelock windows, through brightness
    // escalations, and app energy chained through app->app windows.
    coll_wakelock_metric_ = m->gauge("engine.collateral_screen_wakelock_mj");
    coll_brightness_metric_ =
        m->gauge("engine.collateral_screen_brightness_mj");
    coll_chained_metric_ = m->gauge("engine.collateral_chained_mj");
  }
}

double EAndroidEngine::direct_mj(kernelsim::Uid uid) const {
  const AppIdx idx = ids_.find_app(uid);
  const auto& direct = direct_store_.by_app;
  return idx < direct.size() ? direct[idx].sum() : 0.0;
}

const energy::AppSliceEnergy* EAndroidEngine::direct_breakdown(
    kernelsim::Uid uid) const {
  const AppIdx idx = ids_.find_app(uid);
  const auto& direct = direct_store_.by_app;
  if (idx >= direct.size() || direct[idx].sum() <= 0.0) return nullptr;
  return &direct[idx];
}

double EAndroidEngine::direct_routine_mj(kernelsim::Uid uid,
                                         std::string_view routine) const {
  const AppIdx idx = ids_.find_app(uid);
  const auto& direct = direct_store_.by_app;
  if (idx >= direct.size()) return 0.0;
  const kernelsim::RoutineIdx r = ids_.find_routine(routine);
  return r == kNoIdx ? 0.0 : direct[idx].routine_mj_of(r);
}

double EAndroidEngine::collateral_mj(kernelsim::Uid uid) const {
  const DriverMap* map = map_at(ids_.find_app(uid));
  if (map == nullptr) return 0.0;
  double sum = map->screen_mj;
  for (const AppIdx from : map->from_touched) sum += map->from_app[from];
  return sum;
}

double EAndroidEngine::collateral_from(kernelsim::Uid driver,
                                       Entity entity) const {
  const DriverMap* map = map_at(ids_.find_app(driver));
  if (map == nullptr) return 0.0;
  if (entity.is_screen()) return map->screen_mj;
  const AppIdx from = ids_.find_app(entity.uid);
  return from < map->from_app.size() ? map->from_app[from] : 0.0;
}

std::vector<std::pair<Entity, double>> EAndroidEngine::collateral_entries(
    kernelsim::Uid uid) const {
  std::vector<std::pair<Entity, double>> out;
  const DriverMap* map = map_at(ids_.find_app(uid));
  if (map == nullptr) return out;
  if (map->screen_mj > 0.0) out.emplace_back(Entity::screen(), map->screen_mj);
  for (const AppIdx from : map->from_touched) {
    out.emplace_back(Entity::app(ids_.uid_of(from)), map->from_app[from]);
  }
  return out;
}

void EAndroidEngine::rebuild_window_structures() {
  for (const AppIdx n : adj_nodes_) adj_[n].clear();
  adj_nodes_.clear();
  edge_drivers_.clear();
  screen_windows_.clear();
  wakelock_holders_.clear();
  std::fill(closure_valid_.begin(), closure_valid_.end(), 0);

  for (const auto& [id, window] : tracker_.open_windows()) {
    switch (window.kind) {
      case WindowKind::kActivity:
      case WindowKind::kInterrupt:
      case WindowKind::kService:
      case WindowKind::kPush: {
        if (window.driver == window.driven) break;
        const AppIdx driver = ids_.app_of(window.driver);
        const AppIdx driven = ids_.app_of(window.driven);
        if (adj_.size() <= driver) adj_.resize(driver + 1);
        if (adj_[driver].empty()) adj_nodes_.push_back(driver);
        adj_[driver].push_back(driven);
        edge_drivers_.push_back(driver);
        break;
      }
      case WindowKind::kScreen:
        screen_windows_.push_back(&window);
        break;
      case WindowKind::kWakelock:
        wakelock_holders_.push_back(ids_.app_of(window.driver));
        break;
    }
  }
  for (const AppIdx n : adj_nodes_) sort_unique(adj_[n]);
  sort_unique(edge_drivers_);
  sort_unique(wakelock_holders_);
  // Window ids are issued in open order, so sorting by id fixes one
  // deterministic iteration order for the brightness-delta sums.
  std::sort(screen_windows_.begin(), screen_windows_.end(),
            [](const Window* a, const Window* b) { return a->id < b->id; });
  // Pre-size the hot-fold accumulators and scratch to the interner's
  // population: apps intern alongside window events in practice, so the
  // per-slice growth guards below become cold branches — steady-state
  // slices never resize.
  const std::size_t apps = ids_.app_count();
  direct_store_.ensure(apps);
  if (screen_coll_.size() < apps) screen_coll_.resize(apps, 0.0);
  if (delta_scratch_.size() < apps) delta_scratch_.resize(apps, 0.0);
  cached_generation_ = tracker_.generation();
}

const std::vector<AppIdx>& EAndroidEngine::closure_of(AppIdx root) {
  if (closure_.size() <= root) {
    closure_.resize(root + 1);
    closure_valid_.resize(root + 1, 0);
  }
  std::vector<AppIdx>& out = closure_[root];
  if (closure_valid_[root]) return out;
  out.clear();
  if (!config_.chain_propagation) {
    // Ablation: only the direct neighbours charge. Filtered fill of the
    // reused buffer — no copy of the adjacency row, no per-call set.
    if (root < adj_.size()) {
      for (const AppIdx next : adj_[root]) {
        if (next != root) out.push_back(next);
      }
    }
  } else {
    if (bfs_seen_.size() < ids_.app_count()) bfs_seen_.resize(ids_.app_count(), 0);
    bfs_stack_.clear();
    bfs_stack_.push_back(root);
    bfs_seen_[root] = 1;
    while (!bfs_stack_.empty()) {
      const AppIdx at = bfs_stack_.back();
      bfs_stack_.pop_back();
      if (at >= adj_.size()) continue;
      for (const AppIdx next : adj_[at]) {
        if (bfs_seen_[next]) continue;
        bfs_seen_[next] = 1;
        out.push_back(next);
        bfs_stack_.push_back(next);
      }
    }
    bfs_seen_[root] = 0;
    for (const AppIdx n : out) bfs_seen_[n] = 0;
    // Sorted closure = one canonical charge order per driver.
    std::sort(out.begin(), out.end());
  }
  closure_valid_[root] = 1;
  return out;
}

bool EAndroidEngine::prepare_slice(const energy::EnergySlice& slice) {
  assert(&slice.ids() == &ids_);
  (void)slice;
  // The window-derived structures only change when a window opens or
  // closes (reset() zeroes the cached generation); most slices reuse them
  // untouched.
  if (cached_generation_ == tracker_.generation()) return true;
  rebuild_window_structures();
  return false;
}

void EAndroidEngine::fold_slice(const energy::EnergySlice& slice,
                                energy::FoldTape* tape) {
  using energy::FoldTape;
  assert(&slice.ids() == &ids_);
  FoldTape::add(system_row_mj_, slice.system_mj, tape);

  // 1. Collateral screen energy per driver (dense scratch); the direct
  // ("original") energy was folded by the pipeline's cell pass.
  for (const AppIdx a : screen_coll_touched_) screen_coll_[a] = 0.0;
  screen_coll_touched_.clear();
  auto add_screen_coll = [this](AppIdx driver, double mj) {
    if (screen_coll_.size() <= driver) screen_coll_.resize(driver + 1, 0.0);
    if (screen_coll_[driver] == 0.0) screen_coll_touched_.push_back(driver);
    screen_coll_[driver] += mj;
  };
  double claimed_screen = 0.0;
  if (slice.screen_mj > 0.0) {
    if (slice.screen_forced_by_wakelock) {
      // The screen is only on because of leaked wakelocks: holders with an
      // open wakelock window pay in full, split evenly.
      if (!wakelock_holders_.empty()) {
        const double share = slice.screen_mj / wakelock_holders_.size();
        for (const AppIdx holder : wakelock_holders_) {
          add_screen_coll(holder, share);
        }
        claimed_screen = slice.screen_mj;
      }
    } else if (slice.screen_on) {
      // Brightness escalations: each attacker pays the power delta above
      // its pre-attack baseline.
      const auto& params = server_.params();
      const double current_mw =
          params.screen_base_mw + params.screen_per_level_mw * slice.brightness;
      if (current_mw > 0.0 && !screen_windows_.empty()) {
        for (const AppIdx a : delta_touched_) delta_scratch_[a] = 0.0;
        delta_touched_.clear();
        double wanted = 0.0;
        for (const Window* window : screen_windows_) {
          const int baseline = std::max(window->baseline_brightness, 0);
          const double delta_mw = params.screen_per_level_mw *
                                  std::max(0, slice.brightness - baseline);
          if (delta_mw <= 0.0) continue;
          const AppIdx driver = ids_.app_of(window->driver);
          if (delta_scratch_.size() <= driver) {
            delta_scratch_.resize(driver + 1, 0.0);
          }
          if (delta_scratch_[driver] == 0.0) delta_touched_.push_back(driver);
          delta_scratch_[driver] += delta_mw;
          wanted += delta_mw;
        }
        if (wanted > 0.0) {
          const double budget_mw = std::min(wanted, current_mw);
          std::sort(delta_touched_.begin(), delta_touched_.end());
          for (const AppIdx driver : delta_touched_) {
            const double mj = slice.screen_mj * (delta_scratch_[driver] / wanted) *
                              (budget_mw / current_mw);
            add_screen_coll(driver, mj);
            claimed_screen += mj;
          }
        }
      }
    }
  }
  FoldTape::add(screen_row_mj_, slice.screen_mj - claimed_screen, tape);
  FoldTape::add(attributed_screen_mj_, claimed_screen, tape);
  obs::MetricsRegistry* const metrics = server_.simulator().metrics();
  if (claimed_screen > 0.0 && metrics != nullptr) {
    FoldTape::observe(*metrics,
                      slice.screen_forced_by_wakelock ? coll_wakelock_metric_
                                                      : coll_brightness_metric_,
                      claimed_screen, tape);
  }

  // 2. Charge each driver's map: its own screen collateral plus, through
  // the closure, every reached app's direct energy and screen collateral.
  // Drivers ascending = canonical order.
  std::sort(screen_coll_touched_.begin(), screen_coll_touched_.end());
  drivers_scratch_.clear();
  std::set_union(edge_drivers_.begin(), edge_drivers_.end(),
                 screen_coll_touched_.begin(), screen_coll_touched_.end(),
                 std::back_inserter(drivers_scratch_));

  obs::TraceRecorder* const trace = server_.simulator().trace();
  double chained_slice_mj = 0.0;
  for (const AppIdx driver : drivers_scratch_) {
    if (maps_.size() <= driver) {
      maps_.resize(driver + 1);
      has_map_.resize(driver + 1, 0);
    }
    has_map_[driver] = 1;
    DriverMap& map = maps_[driver];
    double driver_slice_mj = screen_coll_of(driver);
    if (driver_slice_mj > 0.0) {
      FoldTape::add(map.screen_mj, driver_slice_mj, tape);
    }
    for (const AppIdx reached : closure_of(driver)) {
      if (slice.active_at(reached)) {
        const double mj = slice.sum_at(reached);
        if (mj > 0.0) {
          if (map.from_app.size() <= reached) {
            map.from_app.resize(reached + 1, 0.0);
          }
          if (map.from_app[reached] == 0.0) map.from_touched.push_back(reached);
          FoldTape::add(map.from_app[reached], mj, tape);
          driver_slice_mj += mj;
          chained_slice_mj += mj;
        }
      }
      const double reached_screen = screen_coll_of(reached);
      if (reached_screen > 0.0) {
        FoldTape::add(map.screen_mj, reached_screen, tape);
        driver_slice_mj += reached_screen;
      }
    }
    // Attribution breadcrumb: this driver was charged `driver_slice_mj`
    // collateral for this slice (nanojoules in the arg). Drivers iterate
    // in ascending index order, so trace bytes are canonical.
    if (driver_slice_mj > 0.0 && trace != nullptr) {
      FoldTape::mark(*trace, obs::TraceCategory::kEnergy, coll_trace_name_,
                     ids_.uid_of(driver).value,
                     static_cast<std::int64_t>(
                         std::llround(driver_slice_mj * 1e6)),
                     server_.simulator().now().micros(), tape);
    }
  }
  if (chained_slice_mj > 0.0 && metrics != nullptr) {
    FoldTape::observe(*metrics, coll_chained_metric_, chained_slice_mj, tape);
  }
}

std::vector<kernelsim::Uid> EAndroidEngine::known_uids() const {
  std::vector<kernelsim::Uid> out;
  const auto& direct = direct_store_.by_app;
  const std::size_t n = std::max(direct.size(), has_map_.size());
  for (AppIdx idx = 0; idx < n; ++idx) {
    const bool has_direct = idx < direct.size() && direct[idx].sum() > 0.0;
    const bool has_map = idx < has_map_.size() && has_map_[idx];
    if (has_direct || has_map) out.push_back(ids_.uid_of(idx));
  }
  std::sort(out.begin(), out.end());
  return out;
}

void EAndroidEngine::reset() {
  direct_store_.clear();
  maps_.clear();
  has_map_.clear();
  screen_row_mj_ = 0.0;
  attributed_screen_mj_ = 0.0;
  system_row_mj_ = 0.0;
  // Force a window-structure rebuild on the next slice.
  cached_generation_ = 0;
}

}  // namespace eandroid::core
