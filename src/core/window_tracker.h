// WindowTracker: E-Android's framework extension.
//
// Subscribes to the framework event bus and runs the five attack-lifecycle
// state machines of the paper's Fig 5, maintaining the set of open
// collateral windows. System apps (launcher, SystemUI, resolver) are never
// drivers — matching "E-Android treats these built-in apps ... as system
// apps and excludes them from the collateral energy attack list" — but
// their events still participate (a user-driven restart closes windows).
#pragma once

#include <cstdint>
#include <unordered_map>

#include "core/window.h"
#include "framework/events.h"
#include "framework/system_server.h"
#include "kernel/types.h"

namespace eandroid::core {

class WindowTracker {
 public:
  /// Subscribes to the server's event bus immediately.
  explicit WindowTracker(framework::SystemServer& server);

  /// Feed one event (the bus subscription calls this; tests may too).
  void handle(const framework::FwEvent& event);

  [[nodiscard]] const std::unordered_map<std::uint64_t, Window>&
  open_windows() const {
    return windows_;
  }
  [[nodiscard]] std::size_t open_count() const { return windows_.size(); }
  [[nodiscard]] bool has_window(WindowKind kind, kernelsim::Uid driver,
                                kernelsim::Uid driven) const;
  [[nodiscard]] const Window* find_window(WindowKind kind,
                                          kernelsim::Uid driver,
                                          kernelsim::Uid driven) const;

  [[nodiscard]] std::uint64_t opened_total() const { return opened_total_; }
  [[nodiscard]] std::uint64_t closed_total() const { return closed_total_; }

  /// Bumped whenever a window opens or closes. The engine keys its
  /// derived structures (edge graph, reachability closures) on this, so
  /// the common all-quiet slice rebuilds nothing. Field mutations on an
  /// existing window (service started/binding flips, which don't affect
  /// the derived structures) deliberately do not bump it.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

 private:
  Window& open_window(WindowKind kind, kernelsim::Uid driver,
                      kernelsim::Uid driven);
  void close_window(std::uint64_t id);

  [[nodiscard]] bool is_system(kernelsim::Uid uid) const;
  [[nodiscard]] kernelsim::Uid foreground() const;

  void on_activity_start(const framework::FwEvent& event);
  void on_move_to_front(const framework::FwEvent& event);
  void on_interrupt(const framework::FwEvent& event);
  void on_foreground_change(const framework::FwEvent& event);
  void on_service_event(const framework::FwEvent& event);
  void on_brightness_change(const framework::FwEvent& event);
  void on_mode_change(const framework::FwEvent& event);
  void on_wakelock_acquire(const framework::FwEvent& event);
  void on_wakelock_release(const framework::FwEvent& event);
  void on_push(const framework::FwEvent& event);
  void on_app_destroyed(const framework::FwEvent& event);

  framework::SystemServer& server_;

  std::unordered_map<std::uint64_t, Window> windows_;
  /// Wakelocks currently held (handle -> owner), mirrored from events so
  /// the foreground-change machine can open windows for leaked locks.
  struct HeldLock {
    kernelsim::Uid owner;
    bool screen = false;
  };
  std::unordered_map<std::uint64_t, HeldLock> held_locks_;

  std::uint64_t next_window_ = 1;
  std::uint64_t opened_total_ = 0;
  std::uint64_t closed_total_ = 0;
  std::uint64_t generation_ = 1;
};

}  // namespace eandroid::core
