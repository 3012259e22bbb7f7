// PushBroker: a cloud push server fanning notifications into a fleet.
//
// The first cross-device workload: campaigns describe deterministic push
// schedules (an FCM-style broker blasting a sync topic, or a flooder
// attacking a victim app across the whole population), and the broker
// translates them into device-local events at causal-window boundaries.
// Nothing is shared at delivery time — each send is scheduled on the
// target device's own simulator and executes on whichever worker advances
// that device, so fleet results stay bitwise independent of scheduling.
//
// Determinism contract: the events injected into device i for window
// [begin, end) are a pure function of (campaigns, i, begin, end). The
// broker keeps no per-delivery state; delivery counts live on each
// device's PushService. The fleet's workers lean on this from many
// threads at once, so the broker is immutable while a fleet runs:
// freeze() (called by Fleet::start) makes add_campaign a checked error,
// and the only mutable member is an atomic counter.
//
// Same-instant ties: a send landing at sim time t fires at t, but its
// order among OTHER device events at exactly t follows insertion order —
// and insertion happens at the start of the window containing t. Digests
// are therefore invariant across worker counts and repeats always, and
// across window lengths whenever sends do not collide to the microsecond
// with a device-internal event (e.g. a sampler tick); campaigns that
// must be window-length-portable should pick start/stagger values off the
// sampling grid.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "fleet/device_context.h"
#include "sim/time.h"

namespace eandroid::fleet {

/// One deterministic push schedule over the population. The sender and
/// target are package names resolved per device (both must be installed
/// there; devices missing either simply receive nothing).
struct PushCampaign {
  std::string sender_package;
  std::string target_package;
  /// First send lands at `start + device_index * device_stagger`, then
  /// every `period`, for `pushes_per_device` sends total.
  sim::TimePoint start;
  sim::Duration period = sim::seconds(1);
  int pushes_per_device = 1;
  sim::Duration device_stagger = sim::Duration(0);
  std::uint64_t bytes = 2048;
  /// Population slice: device i participates iff
  /// (i % device_stride) == device_phase.
  int device_stride = 1;
  int device_phase = 0;
};

class PushBroker {
 public:
  void add_campaign(PushCampaign campaign);
  [[nodiscard]] const std::vector<PushCampaign>& campaigns() const {
    return campaigns_;
  }

  /// Seals the campaign list. Called by the fleet before its first
  /// dispatch: workers read campaigns_ concurrently, so mutating it after
  /// freeze() is a checked error.
  void freeze() { frozen_ = true; }
  [[nodiscard]] bool frozen() const { return frozen_; }

  /// Schedules every campaign send landing in [begin, end) onto `device`'s
  /// simulator, with the device's clock at or before `begin`. Called by
  /// the worker that owns the device. Returns the number of sends
  /// scheduled.
  /// Send instants are enumerated in closed form (the k-range of
  /// start + stagger*i + period*k intersecting the window), so cost is
  /// O(campaigns + sends-in-window), not O(pushes_per_device).
  std::uint64_t inject(DeviceContext& device, int device_index,
                       sim::TimePoint begin, sim::TimePoint end);

  /// True if some campaign MAY schedule a send on device `device_index`
  /// in [begin, end). Over-approximates: package resolution is ignored
  /// (a device missing the sender or target still reads true), so a
  /// false return guarantees inject() would be a no-op — which is what
  /// the scheduler's window-consolidation fast path needs.
  [[nodiscard]] bool may_send_in(int device_index, sim::TimePoint begin,
                                 sim::TimePoint end) const;

  /// Total sends scheduled across all inject() calls (attempts, not
  /// deliveries — deliveries are counted per device by its PushService).
  [[nodiscard]] std::uint64_t scheduled_total() const {
    return scheduled_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<PushCampaign> campaigns_;
  bool frozen_ = false;
  /// Atomic: workers inject concurrently for different devices.
  std::atomic<std::uint64_t> scheduled_{0};
};

}  // namespace eandroid::fleet
