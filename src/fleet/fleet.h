// Fleet: N simulated devices advanced by a worker pool.
//
// The multi-device layer the one-phone testbed grew into. A fleet builds
// all N DeviceContexts up front from one FleetOptions — every device
// aliases the SAME immutable configuration (the stock PowerParams and
// EngineConfig, the install plan's manifests) through shared_ptr<const>,
// so per-device memory is the mutable simulation state only — and
// advances them through a shared timeline of causal windows: the instants
// where cross-device work (PushBroker injection) or fleet-wide reads
// (aggregation cuts) may occur. Every run_for call appends windows at
// `epoch` granularity.
//
// Scheduling: each call (start, run_for, finish, energy_digests) runs
// every device as one task on the fleet's exp::WorkerPool. A run_for task
// walks ITS device through all of the call's new windows — inject, mark,
// advance — in one go: no device touches another before the call's end,
// which is the only barrier (the aggregation cut). With tracing off a
// task also CONSOLIDATES runs of sendless windows into a single run_until
// (splitting run_until where nothing is injected is an identity), so idle
// devices cross long stretches in one hop.
//
// Determinism: a device's event stream is a pure function of its spec
// and the campaigns — injection content depends only on (device_index,
// window boundaries), never on worker count or which thread runs the
// device — so per-device digests and trace bytes are bitwise identical to
// the serial reference (run_serially below) across worker counts and
// repeated runs. The differential suites in tests/fleet/ pin exactly that.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exp/worker_pool.h"
#include "fleet/device_context.h"
#include "fleet/push_broker.h"
#include "obs/metrics.h"

namespace eandroid::fleet {

/// How the fleet moves devices through the causal-window timeline.
enum class Scheduler {
  kWorkStealing,  ///< names the only scheduler: one pool task per device
};

struct FleetOptions {
  int device_count = 1;
  /// Device i seeds its simulator with base_seed + i * seed_stride, so a
  /// fleet is a deterministic population, not N clones (stride 0 IS the
  /// N-clones configuration, useful for A/B-ing one workload).
  std::uint64_t base_seed = 1;
  std::uint64_t seed_stride = 1;

  /// Does nothing: there is one scheduler. Kept so callers that name it
  /// explicitly keep compiling.
  Scheduler scheduler = Scheduler::kWorkStealing;
  /// Worker threads; 0 means std::thread::hardware_concurrency(). Results
  /// never depend on this.
  unsigned workers = 0;

  /// Causal-window length: the granularity of cross-device injection.
  sim::Duration epoch = sim::seconds(1);

  /// Per-device observability (each device gets its OWN recorder and
  /// registry; only the options are fleet-wide). With tracing on, the
  /// fleet marks window boundaries and push injections on every device's
  /// trace — both depend only on (device_index, window boundaries), so
  /// trace bytes stay invariant across worker counts (tracing disables
  /// window consolidation).
  obs::ObsOptions obs{};

  /// Packages every device installs at construction (one shared plan per
  /// fleet); null installs nothing. Devices run E-Android in complete
  /// mode at DeviceSpec's default sample period, on the stock shared
  /// PowerParams and EngineConfig.
  std::shared_ptr<const InstallPlan> install_plan;
};

class Fleet {
 public:
  explicit Fleet(FleetOptions options);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  [[nodiscard]] std::size_t size() const { return slots_.size(); }

  /// The device. Driver thread only, between runs.
  [[nodiscard]] DeviceContext& device(std::size_t i) {
    return *slots_[i].ctx;
  }

  [[nodiscard]] PushBroker& broker() { return broker_; }
  [[nodiscard]] sim::TimePoint now() const { return clock_; }

  /// Boots every device and starts its sampler. This also freezes the
  /// broker (workers read campaigns concurrently). Call once, before
  /// run_for.
  void start();

  /// Advances the whole fleet by `total`, appending causal windows at
  /// `epoch` granularity. May be called repeatedly; the fleet clock
  /// carries across calls. If devices throw, every other device still
  /// reaches the end of the call, and the lowest device index's error is
  /// rethrown; the failed devices stay where they threw.
  void run_for(sim::Duration total);

  /// Closes every device's final partial sample window. Call after the
  /// last run_for, before reading results.
  void finish();

  /// Per-device full-precision digests, in device order. Equal vectors
  /// mean two fleet runs were observably identical on every device.
  [[nodiscard]] std::vector<std::string> energy_digests();

  /// Scheduler counters as a mergeable, renderable snapshot: fleet.sched.*
  /// (windows advanced/consolidated, device tasks run, and three names a
  /// pool without stealing reads as 0). Driver thread only, between runs:
  /// it sums per-device counts the workers wrote before the barrier.
  [[nodiscard]] obs::MetricsSnapshot scheduler_metrics() const;

 private:
  /// One device and its scheduler counts. Each pool call runs a slot on
  /// exactly one thread, so the fields need no lock.
  struct DeviceSlot {
    std::unique_ptr<DeviceContext> ctx;
    /// Windows advanced, and of those folded into a preceding window's
    /// run_until (fleet.sched.windows_advanced / _consolidated).
    std::uint64_t windows_advanced = 0;
    std::uint64_t windows_consolidated = 0;
  };

  [[nodiscard]] sim::TimePoint window_begin(std::size_t w) const {
    return w == 0 ? sim::TimePoint{} : windows_[w - 1];
  }

  /// Walks slot i's device through windows [w_begin, w_end): inject,
  /// mark, advance. With tracing off, folds runs of sendless windows into
  /// one run_until.
  void advance_windows(std::size_t i, std::size_t w_begin,
                       std::size_t w_end);

  /// Runs `fn(i)` for every slot, one pool task each, and returns when
  /// all are done (the aggregation cut).
  void for_each_slot(const std::function<void(std::size_t)>& fn);

  FleetOptions options_;
  std::vector<DeviceSlot> slots_;
  PushBroker broker_;
  /// Device tasks run: slots times for_each_slot calls.
  std::uint64_t tasks_executed_ = 0;
  /// Causal-window end boundaries, fleet-lifetime. windows_[w] closes
  /// window w; window_begin(w) opens it.
  std::vector<sim::TimePoint> windows_;
  sim::TimePoint clock_;
  bool started_ = false;
  bool finished_ = false;
  /// Declared last: its threads run tasks that use the members above.
  exp::WorkerPool pool_;
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
