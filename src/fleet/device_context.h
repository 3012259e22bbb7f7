// DeviceContext: one simulated phone with all three profilers attached.
//
// The guts of the old apps::Testbed, extracted so a fleet can own N of
// them: simulator, system server, energy sampler, stock BatteryStats,
// PowerTutor, and E-Android, in the construction order the profilers
// require. Everything about the device is named by its DeviceSpec —
// immutable configuration arrives through the spec's shared_ptr<const>
// fields, so a fleet's devices alias one PowerParams / Manifest set /
// EngineConfig instead of copying them per device.
//
// Threading (fleet/fleet.h): exactly one thread touches a device at a
// time — a worker task advancing it via advance_to(), or the driver
// thread between fleet runs. The device itself has no locks.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/e_android.h"
#include "core/engine_report.h"
#include "energy/battery_stats.h"
#include "energy/pipeline.h"
#include "energy/power_tutor.h"
#include "energy/sampler.h"
#include "fleet/device_spec.h"
#include "fleet/install_plan.h"
#include "framework/system_server.h"
#include "sim/check.h"
#include "sim/simulator.h"

namespace eandroid::fleet {

class DeviceContext {
 public:
  explicit DeviceContext(DeviceSpec spec = {});

  DeviceContext(const DeviceContext&) = delete;
  DeviceContext& operator=(const DeviceContext&) = delete;

  /// Installs an app object that provides `manifest()`; returns a borrowed
  /// pointer (the package manager owns it).
  template <typename App, typename... Args>
  App* install(Args&&... args) {
    auto app = std::make_unique<App>(std::forward<Args>(args)...);
    App* borrowed = app.get();
    server_.install(borrowed->manifest(), std::move(app));
    return borrowed;
  }

  /// Boots the device and starts metering.
  void start() {
    server_.boot();
    sampler_.start();
  }

  /// Advances virtual time, then closes the final partial sample window.
  void run_for(sim::Duration d) {
    sim_.run_for(d);
    sampler_.flush();
  }

  /// Causal-window step: advances to an absolute instant WITHOUT closing
  /// the sample window, so window boundaries leave no trace in the energy
  /// arithmetic (digests are independent of the fleet's epoch length).
  void advance_to(sim::TimePoint until) { sim_.run_until(until); }

  /// Closes the final partial window after the last epoch.
  void finish() { sampler_.flush(); }

  /// Android's "battery usage since last full charge" semantic: clears
  /// every profiler's accumulation (call when the charger is unplugged
  /// after a full charge). The window tracker's open windows survive —
  /// attacks in progress keep being attributed.
  void reset_stats() {
    sampler_.flush();
    battery_stats_.reset();
    power_tutor_.reset();
    if (eandroid_) eandroid_->engine().reset();
  }

  [[nodiscard]] const DeviceSpec& spec() const { return spec_; }
  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] framework::SystemServer& server() { return server_; }
  [[nodiscard]] energy::EnergySampler& sampler() { return sampler_; }
  [[nodiscard]] energy::BatteryStats& battery_stats() {
    return battery_stats_;
  }
  [[nodiscard]] energy::PowerTutor& power_tutor() { return power_tutor_; }
  [[nodiscard]] energy::MeteringPipeline& pipeline() { return pipeline_; }
  /// Null when constructed with with_eandroid=false (stock Android).
  [[nodiscard]] core::EAndroid* eandroid() { return eandroid_.get(); }
  [[nodiscard]] const core::EAndroid* eandroid() const {
    return eandroid_.get();
  }

  /// The package's context, spawning its process first; callers that
  /// only want the process running ignore the result.
  framework::Context& context_of(const std::string& package) {
    const framework::PackageRecord* pkg = server_.packages().find(package);
    EANDROID_CHECK(pkg != nullptr,
                   "context_of for unknown package " << package);
    server_.ensure_process(pkg->uid);
    return server_.context_of(pkg->uid);
  }
  [[nodiscard]] kernelsim::Uid uid_of(const std::string& package) {
    const framework::PackageRecord* pkg = server_.packages().find(package);
    return pkg == nullptr ? kernelsim::Uid{} : pkg->uid;
  }

  /// The device's observability bundle (owned by the SystemServer).
  [[nodiscard]] obs::Observability& obs() { return server_.obs(); }
  [[nodiscard]] const obs::Observability& obs() const {
    return server_.obs();
  }
  /// Deterministic text export of the device's trace ring; empty string
  /// when the spec did not request tracing.
  [[nodiscard]] std::string trace_text() const;
  /// Chrome trace_event JSON (empty when tracing is off); pid = the
  /// device_index so a fleet's traces merge into one multi-device view.
  [[nodiscard]] std::string chrome_trace() const;
  /// Name-sorted metrics snapshot; fleet::aggregate merges these.
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() const {
    return server_.obs().metrics().snapshot();
  }

  /// Full-precision (%.17g) rendering of every per-uid total all three
  /// profilers hold, plus the device-level rows, battery ground truth,
  /// tracker counters, and push deliveries. Two runs of the same spec and
  /// workload are observably identical iff their digests are equal — the
  /// fleet's differential tests compare these strings bitwise.
  [[nodiscard]] std::string energy_digest();

  /// Frozen accounting snapshot (requires E-Android; checked error
  /// otherwise). fleet/aggregate.h merges these across devices.
  [[nodiscard]] core::EngineReport engine_report();

  // --- Prepared sends (PushBroker fast path) ------------------------------
  // The broker resolves a campaign's sender/target packages on this device
  // once, caches the resolution in a slot here, and schedules each delivery
  // as a 12-byte closure [device*, slot] — small enough for std::function's
  // SBO, so steady-state injection allocates nothing. Slots are touched
  // only by the worker that owns the device (the injection discipline), so
  // no locks. Campaign uids are stable once resolved (the package manager
  // assigns a uid at install and never reassigns it), so a cached slot
  // stays valid for the device's lifetime; unresolvable campaigns are NOT
  // cached — the broker retries, matching the baseline's per-window lookup
  // for devices whose packages arrive late.

  /// One campaign's resolved delivery recipe on this device.
  struct PreparedSend {
    kernelsim::Uid sender;
    kernelsim::Uid target;
    std::string target_package;
    std::uint64_t bytes = 0;
  };

  /// Cached slot for campaign `ci`, or -1 if not yet resolved here.
  [[nodiscard]] std::int32_t prepared_send_slot(std::size_t ci) const {
    return ci < prepared_of_campaign_.size() ? prepared_of_campaign_[ci] : -1;
  }
  /// Records the resolution for campaign `ci`; returns its slot.
  std::int32_t cache_prepared_send(std::size_t ci, PreparedSend send) {
    if (prepared_of_campaign_.size() <= ci) {
      prepared_of_campaign_.resize(ci + 1, -1);
    }
    const auto slot = static_cast<std::int32_t>(prepared_sends_.size());
    prepared_sends_.push_back(std::move(send));
    prepared_of_campaign_[ci] = slot;
    return slot;
  }
  /// Executes the delivery recipe in `slot` at the device's current time.
  void deliver_prepared(std::uint32_t slot) {
    const PreparedSend& send = prepared_sends_[slot];
    // The cloud end keeps both parties alive: the sender process must
    // exist to own the send, and the target must have run once to
    // register its endpoint (FCM token issuance).
    server_.ensure_process(send.sender);
    server_.ensure_process(send.target);
    server_.push().send_push(send.sender, send.target_package, send.bytes);
  }

 private:
  DeviceSpec spec_;
  sim::Simulator sim_;
  framework::SystemServer server_;
  energy::EnergySampler sampler_;
  energy::BatteryStats battery_stats_;
  energy::PowerTutor power_tutor_;
  energy::MeteringPipeline pipeline_;
  std::unique_ptr<core::EAndroid> eandroid_;

  // Prepared-send registry (see section above): campaign index -> slot,
  // and the slots themselves.
  std::vector<std::int32_t> prepared_of_campaign_;
  std::vector<PreparedSend> prepared_sends_;
};

}  // namespace eandroid::fleet
