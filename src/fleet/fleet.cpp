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
  spec.obs = options.obs;
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
      pool_(options_.workers) {
  for (int i = 0; i < options_.device_count; ++i) {
    slots_[static_cast<std::size_t>(i)].ctx =
        std::make_unique<DeviceContext>(device_spec(options_, i));
  }
}

Fleet::~Fleet() = default;

void Fleet::for_each_slot(const std::function<void(std::size_t)>& fn) {
  tasks_executed_ += slots_.size();
  pool_.run(slots_.size(), fn);
}

void Fleet::start() {
  EANDROID_CHECK(!started_, "Fleet::start called twice");
  started_ = true;
  // Workers read the campaign list concurrently from here on.
  broker_.freeze();
  for_each_slot([this](std::size_t i) { slots_[i].ctx->start(); });
}

void Fleet::advance_windows(std::size_t i, std::size_t w_begin,
                            std::size_t w_end) {
  DeviceSlot& slot = slots_[i];
  DeviceContext& device = *slot.ctx;
  const int index = static_cast<int>(i);
  obs::TraceRecorder* tr = device.obs().trace();
  std::uint64_t advanced = 0;
  std::uint64_t consolidated = 0;
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
        advanced += run - w;
        consolidated += run - w - 1;
        w = run;
        continue;
      }
    }
    inject_device(device, index, broker_, begin, end);
    device.advance_to(end);
    ++advanced;
    ++w;
  }
  slot.windows_advanced += advanced;
  slot.windows_consolidated += consolidated;
}

void Fleet::run_for(sim::Duration total) {
  EANDROID_CHECK(started_, "Fleet::run_for before start()");
  EANDROID_CHECK(!finished_, "Fleet::run_for after finish()");
  const std::size_t first = windows_.size();
  const sim::TimePoint end = clock_ + total;
  while (clock_ < end) {
    const sim::TimePoint window_end = std::min(end, clock_ + options_.epoch);
    windows_.push_back(window_end);
    clock_ = window_end;
  }
  // One task per device walks it through all the new windows; the end of
  // the call is the only barrier.
  const std::size_t last = windows_.size();
  for_each_slot(
      [this, first, last](std::size_t i) { advance_windows(i, first, last); });
}

void Fleet::finish() {
  for_each_slot([this](std::size_t i) { slots_[i].ctx->finish(); });
  finished_ = true;
}

std::vector<std::string> Fleet::energy_digests() {
  std::vector<std::string> digests(slots_.size());
  for_each_slot([this, &digests](std::size_t i) {
    digests[i] = slots_[i].ctx->energy_digest();
  });
  return digests;
}

obs::MetricsSnapshot Fleet::scheduler_metrics() const {
  std::uint64_t advanced = 0;
  std::uint64_t consolidated = 0;
  for (const DeviceSlot& slot : slots_) {
    advanced += slot.windows_advanced;
    consolidated += slot.windows_consolidated;
  }
  // The pool never steals, refills or parks, so those three read 0. They
  // stay because e2ebench's fleet workload fails on a missing name.
  return obs::MetricsSnapshot::of_counters({
      {"fleet.sched.windows_advanced", advanced},
      {"fleet.sched.windows_consolidated", consolidated},
      {"fleet.sched.tasks_executed", tasks_executed_},
      {"fleet.sched.steals", 0},
      {"fleet.sched.injection_refills", 0},
      {"fleet.sched.parks", 0},
  });
}

}  // namespace eandroid::fleet
