// Session-based hardware component (camera, GPS, WiFi, audio).
//
// These components have no meaningful "utilization"; they are on or off,
// with a tail-power state after the last user releases them — the property
// that made state-based energy models (AppScope, system-call tracing) more
// accurate than pure utilization models. A session is opened by an app
// (identified by uid) and closed by it; concurrent sessions share the
// active power equally for attribution.
//
// The metering tick keeps its previous slice when nothing it reads has
// changed, so the component reports what can change its breakdown: a
// generation counter for the calls, and whether a tail is running down
// (a tail expires on the clock, with no call).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "kernel/types.h"
#include "sim/simulator.h"

namespace eandroid::hw {

struct SessionId {
  std::uint64_t id = 0;
  [[nodiscard]] constexpr bool valid() const { return id != 0; }
};

/// Per-uid power attribution for one instant, in milliwatts. `by_uid` is
/// sorted ascending by uid — a flat vector so the sampler can reuse one
/// breakdown buffer per tick and consumers sum in canonical order.
struct PowerBreakdown {
  double total_mw = 0.0;
  std::vector<std::pair<kernelsim::Uid, double>> by_uid;

  [[nodiscard]] double of(kernelsim::Uid uid) const {
    for (const auto& [u, mw] : by_uid) {
      if (u == uid) return mw;
    }
    return 0.0;
  }
  void clear() {
    total_mw = 0.0;
    by_uid.clear();
  }
};

class SessionComponent {
 public:
  SessionComponent(sim::Simulator& sim, std::string name, double active_mw,
                   double tail_mw, sim::Duration tail)
      : sim_(sim),
        name_(std::move(name)),
        active_mw_(active_mw),
        tail_mw_(tail_mw),
        tail_(tail) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Opens a usage session attributed to `uid`.
  SessionId begin_session(kernelsim::Uid uid);

  /// Closes a session; entering the tail state if it was the last one.
  /// Unknown/already-closed ids are ignored.
  void end_session(SessionId id);

  /// Closes every session owned by `uid` (process death cleanup).
  void end_sessions_of(kernelsim::Uid uid);

  [[nodiscard]] bool active() const { return !sessions_.empty(); }
  [[nodiscard]] std::size_t session_count() const { return sessions_.size(); }

  /// Instantaneous power with per-uid attribution. Tail power is charged
  /// to the uid whose session ended last (it caused the tail).
  [[nodiscard]] PowerBreakdown breakdown() const;

  /// Same, written into a caller-owned buffer (cleared first) so the
  /// metering loop reuses one allocation across ticks.
  void breakdown_into(PowerBreakdown& out) const;

  /// Moves on every begin_session, end_session and end_sessions_of call
  /// that changes the session set.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  /// True when breakdown() cannot change until the generation moves: a
  /// session is open, or no tail is running down.
  [[nodiscard]] bool time_stable() const {
    return !sessions_.empty() || !(tail_mw_ > 0.0 && sim_.now() < tail_until_);
  }

 private:
  sim::Simulator& sim_;
  std::string name_;
  double active_mw_;
  double tail_mw_;
  sim::Duration tail_;

  std::unordered_map<std::uint64_t, kernelsim::Uid> sessions_;
  kernelsim::Uid last_owner_{};
  sim::TimePoint tail_until_{};
  std::uint64_t next_session_ = 1;
  std::uint64_t generation_ = 0;
};

}  // namespace eandroid::hw
