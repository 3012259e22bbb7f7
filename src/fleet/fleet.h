// Fleet: N simulated devices advanced by a work-stealing executor.
//
// The multi-device layer the one-phone testbed grew into. A fleet builds
// N DeviceContexts from one FleetOptions — every device aliases the SAME
// immutable configuration (PowerParams, install-plan manifests, engine
// config) through shared_ptr<const>, so per-device memory is the mutable
// simulation state only — and advances them through a shared timeline of
// causal windows: the instants where cross-device work (PushBroker
// injection) or fleet-wide reads (aggregation cuts) may occur. Every
// run_for call appends windows at `epoch` granularity.
//
// Scheduling: one task per device on a WorkStealingExecutor. Each task
// walks ITS device through the pending windows — inject, mark, advance —
// in grains of advance_grain_windows, requeueing itself on the worker's
// own deque until caught up. Devices run ahead of each other freely; the
// only barrier is the wait_idle() at the end of run_for (the aggregation
// cut). With tracing off a task also CONSOLIDATES runs of sendless
// windows into a single run_until (splitting run_until where nothing is
// injected is an identity), so idle devices cross long stretches in one
// hop.
//
// Hibernation (max_resident_devices > 0): run_for only appends windows,
// and finish() materializes each device exactly once — construct, boot,
// replay its full window timeline, flush, snapshot to a
// fleet/hibernation.h DeviceSnapshot, and park it, keeping at most
// max_resident_devices live in an LRU working set. RSS is then bounded
// by the working set + in-flight workers instead of the population size.
// device(i) restores a parked device by deterministic replay and PINS it
// (external mutations cannot be replayed, so pinned devices are never
// evicted). See DESIGN.md §11.
//
// Determinism: a device's event stream is a pure function of its spec
// and the campaigns — injection content depends only on (device_index,
// window boundaries), never on worker count, stealing, or eviction — so
// per-device digests and trace bytes are bitwise identical to the serial
// reference (run_serially below) across worker counts, grains, eviction
// schedules, and repeated runs. The differential suites in tests/fleet/
// pin exactly that.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exp/work_stealing.h"
#include "fleet/device_context.h"
#include "fleet/hibernation.h"
#include "fleet/push_broker.h"
#include "obs/metrics.h"

namespace eandroid::fleet {

/// How the fleet moves devices through the causal-window timeline.
enum class Scheduler {
  kWorkStealing,  ///< per-device tasks on a work-stealing executor
};

struct FleetOptions {
  int device_count = 1;
  /// Device i seeds its simulator with base_seed + i * seed_stride, so a
  /// fleet is a deterministic population, not N clones (stride 0 IS the
  /// N-clones configuration, useful for A/B-ing one workload).
  std::uint64_t base_seed = 1;
  std::uint64_t seed_stride = 1;

  /// Does nothing: work stealing is the only scheduler. Kept so callers
  /// that name it explicitly keep compiling.
  Scheduler scheduler = Scheduler::kWorkStealing;
  /// Worker threads; 0 means std::thread::hardware_concurrency(). Results
  /// never depend on this.
  unsigned workers = 0;
  /// Hibernation working-set cap: maximum finished DeviceContexts kept
  /// live; 0 disables hibernation entirely. With a cap, run_for defers
  /// all advancement to finish() so each device materializes once (see
  /// file comment).
  int max_resident_devices = 0;
  /// Causal windows a device task advances before requeueing itself —
  /// the fairness/steal granularity.
  int advance_grain_windows = 8;

  /// Causal-window length: the granularity of cross-device injection.
  sim::Duration epoch = sim::seconds(1);

  // Per-device knobs, identical across the fleet.
  bool with_eandroid = true;
  core::Mode eandroid_mode = core::Mode::kComplete;
  sim::Duration sample_period = sim::millis(250);
  /// Per-device observability (each device gets its OWN recorder and
  /// registry; only the options are fleet-wide). With tracing on, the
  /// fleet marks window boundaries and push injections on every device's
  /// trace — both depend only on (device_index, window boundaries), so
  /// trace bytes stay invariant across worker counts (tracing disables
  /// window consolidation).
  obs::ObsOptions obs{};

  // Shared immutable configuration (one object per fleet). Null params /
  // engine_config fall back to the stock shared instances; a null plan
  // installs nothing.
  std::shared_ptr<const hw::PowerParams> params;
  std::shared_ptr<const core::EngineConfig> engine_config;
  std::shared_ptr<const InstallPlan> install_plan;
};

class Fleet {
 public:
  explicit Fleet(FleetOptions options);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  [[nodiscard]] std::size_t size() const { return slots_.size(); }

  /// The device, live. On a hibernating fleet this restores a parked
  /// device by replay, catches it up to the fleet clock, and PINS it
  /// (never evicted afterwards) — external mutations through this
  /// reference cannot be reproduced by replay. Driver thread only,
  /// between runs. Prefer energy_digests() for bulk reads at scale.
  [[nodiscard]] DeviceContext& device(std::size_t i);

  [[nodiscard]] const FleetOptions& options() const { return options_; }
  [[nodiscard]] PushBroker& broker() { return broker_; }
  [[nodiscard]] sim::TimePoint now() const { return clock_; }

  /// Boots every device and starts its sampler. This also freezes the
  /// broker (workers read campaigns concurrently). Call once, before
  /// run_for.
  void start();

  /// Advances the whole fleet by `total`, appending causal windows at
  /// `epoch` granularity. May be called repeatedly; the fleet clock
  /// carries across calls. Hibernating fleets only record the windows
  /// here — the work happens in finish().
  void run_for(sim::Duration total);

  /// Closes every device's final partial sample window. On a hibernating
  /// fleet this is the materialization pass: every device runs its full
  /// timeline, snapshots, and parks. Call after the last run_for, before
  /// reading results.
  void finish();

  /// Per-device full-precision digests, in device order. Equal vectors
  /// mean two fleet runs were observably identical on every device.
  /// Hibernating fleets serve these from snapshots (requires finish()).
  [[nodiscard]] std::vector<std::string> energy_digests();

  /// Parked-form record for device i; meaningful on hibernating fleets
  /// after finish() (empty digest before the snapshot exists).
  [[nodiscard]] const DeviceSnapshot& snapshot(std::size_t i) const {
    return slots_[i].snap;
  }

  /// Live DeviceContexts right now (≤ device_count; the hibernation
  /// working set plus pinned devices on a parked fleet).
  [[nodiscard]] std::size_t resident_devices() const;

  /// Scheduler and hibernation counters as a mergeable, renderable
  /// snapshot: fleet.sched.* (windows advanced/consolidated, executor
  /// tasks/steals/refills/parks) and fleet.hib.* (snapshots, evictions,
  /// replay restores, snapshot bytes).
  [[nodiscard]] obs::MetricsSnapshot scheduler_metrics() const;

 private:
  /// One device's scheduling state. Exactly one worker task owns a slot
  /// at a time (tasks are per-device and never overlap), so the fields
  /// need no lock; the LRU bookkeeping below hib_mu_ is the only shared
  /// mutable structure.
  struct DeviceSlot {
    std::unique_ptr<DeviceContext> ctx;
    /// Causal windows fully applied to ctx (replay position).
    std::size_t next_window = 0;
    bool booted = false;
    bool flushed = false;
    /// Pinned devices are never evicted: they were handed out via
    /// device(i), so their state may have diverged from what replay
    /// would reconstruct.
    bool pinned = false;
    bool has_snap = false;
    DeviceSnapshot snap;
  };

  [[nodiscard]] bool hibernating() const {
    return options_.max_resident_devices > 0;
  }
  [[nodiscard]] sim::TimePoint window_begin(std::size_t w) const {
    return w == 0 ? sim::TimePoint{} : windows_[w - 1];
  }

  /// Walks one device through windows [w_begin, w_end): inject, mark,
  /// advance. With tracing off, folds runs of sendless windows into one
  /// run_until.
  void advance_windows(DeviceContext& device, int index, std::size_t w_begin,
                       std::size_t w_end);
  /// One task grain: advance slot i up to `target`, requeue if not
  /// caught up.
  void advance_task(std::size_t i, std::size_t target);
  /// Hibernating finish pass for slot i: materialize, run the full
  /// timeline, flush, snapshot, park (LRU) or stay pinned.
  void hibernate_task(std::size_t i);
  /// Ensures slot i has a live, booted, caught-up context (constructing
  /// or replaying as needed).
  void materialize(DeviceSlot& slot, std::size_t i);
  void take_snapshot(DeviceSlot& slot);
  /// Destroys a parked context and resets its replay position.
  void evict(DeviceSlot& slot);

  /// Runs `fn(i)` for every slot as one executor task each, and waits
  /// idle (the aggregation cut).
  template <typename Fn>
  void for_each_slot(Fn&& fn);

  FleetOptions options_;
  std::vector<DeviceSlot> slots_;
  PushBroker broker_;
  exp::WorkStealingExecutor exec_;
  /// Causal-window end boundaries, fleet-lifetime. windows_[w] closes
  /// window w; window_begin(w) opens it.
  std::vector<sim::TimePoint> windows_;
  sim::TimePoint clock_;
  bool started_ = false;
  bool finished_ = false;

  // Hibernation working set: indices of parked-but-live slots, oldest
  // first. Guarded by hib_mu_ (finish tasks park concurrently).
  std::mutex hib_mu_;
  std::deque<std::size_t> lru_;

  // Scheduler/hibernation counters (workers bump them concurrently).
  std::atomic<std::uint64_t> windows_advanced_{0};
  std::atomic<std::uint64_t> windows_consolidated_{0};
  std::atomic<std::uint64_t> snapshots_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> restores_{0};
  std::atomic<std::uint64_t> snapshot_bytes_{0};
};

/// The DeviceSpec a Fleet built from `options` gives device `index`.
[[nodiscard]] DeviceSpec device_spec(const FleetOptions& options, int index);

/// The fleet's serial reference: advances `device` (fleet index `index`)
/// by `total` on the calling thread exactly as Fleet::run_for moves each
/// of its devices — causal windows of `epoch` from the device's current
/// time, each one PushBroker::inject plus the fleet's trace marks, then
/// advance_to. Differential tests drive one device per index through
/// this loop and compare against the fleet bit for bit.
void run_serially(DeviceContext& device, int index, PushBroker& broker,
                  sim::Duration total, sim::Duration epoch);

}  // namespace eandroid::fleet
