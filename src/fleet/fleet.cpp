#include "fleet/fleet.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"
#include "sim/check.h"

namespace eandroid::fleet {

namespace {
FleetOptions normalized(FleetOptions options) {
  EANDROID_CHECK(options.device_count >= 1,
                 "Fleet needs at least one device, got "
                     << options.device_count);
  EANDROID_CHECK(options.epoch > sim::Duration(0),
                 "Fleet epoch must be positive");
  EANDROID_CHECK(options.max_resident_devices >= 0,
                 "max_resident_devices must be >= 0");
  EANDROID_CHECK(options.advance_grain_windows >= 1,
                 "advance_grain_windows must be >= 1");
  if (options.params == nullptr) options.params = hw::shared_nexus4_params();
  if (options.engine_config == nullptr) {
    options.engine_config = shared_default_engine_config();
  }
  return options;
}

/// One device's per-window injection: broker sends + the fleet.epoch /
/// fleet.push_inject trace marks and pushes_injected metric. The fleet
/// and the serial reference share it, so the observable per-device
/// sequence is identical in both.
void inject_device(DeviceContext& device, int index, PushBroker& broker,
                   sim::TimePoint begin, sim::TimePoint end) {
  const std::uint64_t sends = broker.inject(device, index, begin, end);
  // The trace marks (window boundary, sends injected) depend only on
  // device_index and the window boundaries — never on the worker that
  // runs the device — so traced fleets keep the bitwise invariance
  // contract.
  [[maybe_unused]] obs::TraceRecorder* tr = device.obs().trace();
  EANDROID_TRACE_LIT(tr, begin.micros(), obs::TraceCategory::kFleet,
                     "fleet.epoch", -1, end.micros());
  if (sends > 0) {
    EANDROID_TRACE_LIT(tr, begin.micros(), obs::TraceCategory::kFleet,
                       "fleet.push_inject", -1,
                       static_cast<std::int64_t>(sends));
    if (auto* m = device.sim().metrics())
      m->add(m->counter("fleet.pushes_injected"), sends);
  }
}
}  // namespace

DeviceSpec device_spec(const FleetOptions& options, int index) {
  DeviceSpec spec;
  spec.seed = options.base_seed +
              static_cast<std::uint64_t>(index) * options.seed_stride;
  spec.device_index = index;
  spec.with_eandroid = options.with_eandroid;
  spec.eandroid_mode = options.eandroid_mode;
  spec.sample_period = options.sample_period;
  spec.obs = options.obs;
  spec.params = options.params;
  spec.engine_config = options.engine_config;
  spec.install_plan = options.install_plan;
  return spec;
}

void run_serially(DeviceContext& device, int index, PushBroker& broker,
                  sim::Duration total, sim::Duration epoch) {
  const sim::TimePoint end = device.sim().now() + total;
  for (sim::TimePoint begin = device.sim().now(); begin < end;) {
    const sim::TimePoint window_end = std::min(end, begin + epoch);
    inject_device(device, index, broker, begin, window_end);
    device.advance_to(window_end);
    begin = window_end;
  }
}

Fleet::Fleet(FleetOptions options)
    : options_(normalized(std::move(options))),
      slots_(static_cast<std::size_t>(options_.device_count)),
      exec_(options_.workers) {
  if (!hibernating()) {
    // Eager population: every device exists for the fleet's lifetime.
    // Hibernating fleets build devices lazily — finish() materializes
    // each exactly once.
    for (int i = 0; i < options_.device_count; ++i) {
      slots_[static_cast<std::size_t>(i)].ctx =
          std::make_unique<DeviceContext>(device_spec(options_, i));
    }
  }
}

Fleet::~Fleet() = default;

template <typename Fn>
void Fleet::for_each_slot(Fn&& fn) {
  std::vector<exp::WorkStealingExecutor::Task> tasks;
  tasks.reserve(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    tasks.push_back([&fn, i] { fn(i); });
  }
  exec_.submit_bulk(std::move(tasks));
  // The aggregation cut: the ONLY cross-device barrier.
  exec_.wait_idle();
}

void Fleet::start() {
  EANDROID_CHECK(!started_, "Fleet::start called twice");
  started_ = true;
  // Workers read the campaign list concurrently from here on.
  broker_.freeze();
  if (hibernating()) {
    // Lazy population: nothing to boot yet, except devices a caller
    // already materialized (and thereby pinned) before start.
    for (DeviceSlot& slot : slots_) {
      if (slot.ctx != nullptr && !slot.booted) {
        slot.ctx->start();
        slot.booted = true;
      }
    }
    return;
  }
  for_each_slot([this](std::size_t i) {
    slots_[i].ctx->start();
    slots_[i].booted = true;
  });
}

void Fleet::advance_windows(DeviceContext& device, int index,
                            std::size_t w_begin, std::size_t w_end) {
  if (w_begin >= w_end) return;
  obs::TraceRecorder* tr = device.obs().trace();
  std::size_t w = w_begin;
  while (w < w_end) {
    const sim::TimePoint begin = window_begin(w);
    const sim::TimePoint end = windows_[w];
    if (tr == nullptr) {
      // Consolidation fast path: fold a maximal run of sendless windows
      // into ONE run_until. Splitting run_until at instants where
      // nothing is injected is an identity on the event stream, and the
      // per-window observables — the fleet.epoch trace mark and the
      // pushes_injected metric — are respectively off (no recorder) and
      // zero on such windows, so digests are unchanged.
      std::size_t run = w;
      while (run < w_end &&
             !broker_.may_send_in(index, window_begin(run), windows_[run])) {
        ++run;
      }
      if (run > w) {
        device.advance_to(windows_[run - 1]);
        windows_advanced_.fetch_add(run - w, std::memory_order_relaxed);
        windows_consolidated_.fetch_add(run - w - 1,
                                        std::memory_order_relaxed);
        w = run;
        continue;
      }
    }
    inject_device(device, index, broker_, begin, end);
    device.advance_to(end);
    windows_advanced_.fetch_add(1, std::memory_order_relaxed);
    ++w;
  }
}

void Fleet::advance_task(std::size_t i, std::size_t target) {
  DeviceSlot& slot = slots_[i];
  const std::size_t stop =
      std::min(target, slot.next_window + static_cast<std::size_t>(
                                              options_.advance_grain_windows));
  advance_windows(*slot.ctx, static_cast<int>(i), slot.next_window, stop);
  slot.next_window = stop;
  if (stop < target) {
    // Requeue on the worker's own deque (LIFO, stealable): the device
    // keeps running ahead unless a thief rebalances it away.
    exec_.submit([this, i, target] { advance_task(i, target); });
  }
}

void Fleet::run_for(sim::Duration total) {
  EANDROID_CHECK(started_, "Fleet::run_for before start()");
  EANDROID_CHECK(!finished_, "Fleet::run_for after finish()");
  const sim::TimePoint end = clock_ + total;
  while (clock_ < end) {
    const sim::TimePoint window_end = std::min(end, clock_ + options_.epoch);
    windows_.push_back(window_end);
    clock_ = window_end;
  }
  if (hibernating()) {
    // Lazy: windows recorded, devices untouched — except pinned ones,
    // which a caller may inspect between runs and so must track the
    // fleet clock the way every live device does.
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      DeviceSlot& slot = slots_[i];
      if (slot.ctx != nullptr && slot.pinned) materialize(slot, i);
    }
    return;
  }
  // One task per device walks it through the new windows in grains,
  // requeueing until caught up. No per-window barrier — the wait inside
  // is the aggregation cut.
  const std::size_t target = windows_.size();
  for_each_slot([this, target](std::size_t i) { advance_task(i, target); });
}

void Fleet::materialize(DeviceSlot& slot, std::size_t i) {
  if (slot.ctx == nullptr) {
    if (slot.has_snap) restores_.fetch_add(1, std::memory_order_relaxed);
    slot.ctx = std::make_unique<DeviceContext>(
        device_spec(options_, static_cast<int>(i)));
    slot.next_window = 0;
    slot.booted = false;
    slot.flushed = false;
  }
  if (started_ && !slot.booted) {
    slot.ctx->start();
    slot.booted = true;
  }
  advance_windows(*slot.ctx, static_cast<int>(i), slot.next_window,
                  windows_.size());
  slot.next_window = windows_.size();
}

void Fleet::take_snapshot(DeviceSlot& slot) {
  DeviceSnapshot snap;
  snap.energy_digest = slot.ctx->energy_digest();
  snap.pushes_delivered = slot.ctx->server().push().pushes_delivered();
  snap.sim_end_us = slot.ctx->sim().now().micros();
  snap.windows_done = slot.next_window;
  snapshot_bytes_.fetch_add(snap.energy_digest.size() + sizeof(DeviceSnapshot),
                            std::memory_order_relaxed);
  snapshots_.fetch_add(1, std::memory_order_relaxed);
  slot.snap = std::move(snap);
  slot.has_snap = true;
}

void Fleet::evict(DeviceSlot& slot) {
  slot.ctx.reset();
  slot.next_window = 0;
  slot.booted = false;
  slot.flushed = false;
  evictions_.fetch_add(1, std::memory_order_relaxed);
}

void Fleet::hibernate_task(std::size_t i) {
  DeviceSlot& slot = slots_[i];
  materialize(slot, i);
  if (!slot.flushed) {
    slot.ctx->finish();
    slot.flushed = true;
  }
  take_snapshot(slot);
  std::lock_guard<std::mutex> lock(hib_mu_);
  if (slot.pinned) return;
  lru_.push_back(i);
  const auto cap = static_cast<std::size_t>(options_.max_resident_devices);
  while (lru_.size() > cap) {
    const std::size_t victim = lru_.front();
    lru_.pop_front();
    evict(slots_[victim]);
  }
}

void Fleet::finish() {
  if (hibernating()) {
    EANDROID_CHECK(!finished_, "Fleet::finish called twice");
    // The materialization pass: every device runs its whole timeline in
    // one visit — construct, boot, windows, flush, snapshot, park. Peak
    // residency is the LRU cap plus the devices in flight on workers.
    for_each_slot([this](std::size_t i) { hibernate_task(i); });
  } else {
    for_each_slot([this](std::size_t i) {
      slots_[i].ctx->finish();
      slots_[i].flushed = true;
    });
  }
  finished_ = true;
}

std::vector<std::string> Fleet::energy_digests() {
  std::vector<std::string> digests(slots_.size());
  if (hibernating()) {
    EANDROID_CHECK(finished_,
                   "energy_digests on a hibernating fleet requires finish() "
                   "(digests are served from snapshots)");
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      DeviceSlot& slot = slots_[i];
      // Pinned devices may have been mutated after their snapshot; read
      // them live. Everyone else answers from the parked form.
      digests[i] = (slot.pinned && slot.ctx != nullptr)
                       ? slot.ctx->energy_digest()
                       : slot.snap.energy_digest;
    }
    return digests;
  }
  for_each_slot([this, &digests](std::size_t i) {
    digests[i] = slots_[i].ctx->energy_digest();
  });
  return digests;
}

DeviceContext& Fleet::device(std::size_t i) {
  DeviceSlot& slot = slots_[i];
  if (hibernating()) {
    if (slot.ctx == nullptr) {
      materialize(slot, i);
      if (finished_ && !slot.flushed) {
        slot.ctx->finish();
        slot.flushed = true;
      }
    }
    if (!slot.pinned) {
      std::lock_guard<std::mutex> lock(hib_mu_);
      slot.pinned = true;
      lru_.erase(std::remove(lru_.begin(), lru_.end(), i), lru_.end());
    }
  }
  return *slot.ctx;
}

std::size_t Fleet::resident_devices() const {
  std::size_t live = 0;
  for (const DeviceSlot& slot : slots_) {
    if (slot.ctx != nullptr) ++live;
  }
  return live;
}

obs::MetricsSnapshot Fleet::scheduler_metrics() const {
  std::vector<std::pair<std::string, std::uint64_t>> counters = {
      {"fleet.sched.windows_advanced",
       windows_advanced_.load(std::memory_order_relaxed)},
      {"fleet.sched.windows_consolidated",
       windows_consolidated_.load(std::memory_order_relaxed)},
      {"fleet.hib.snapshots", snapshots_.load(std::memory_order_relaxed)},
      {"fleet.hib.evictions", evictions_.load(std::memory_order_relaxed)},
      {"fleet.hib.restores", restores_.load(std::memory_order_relaxed)},
      {"fleet.hib.snapshot_bytes",
       snapshot_bytes_.load(std::memory_order_relaxed)},
  };
  const exp::WorkStealingExecutor::Stats s = exec_.stats();
  counters.emplace_back("fleet.sched.tasks_executed", s.executed);
  counters.emplace_back("fleet.sched.steals", s.steals);
  counters.emplace_back("fleet.sched.injection_refills", s.injection_refills);
  counters.emplace_back("fleet.sched.parks", s.parks);
  return obs::MetricsSnapshot::of_counters(std::move(counters));
}

}  // namespace eandroid::fleet
