// Collateral-attack windows (paper Fig 5).
//
// A window is one live (driving app -> driven entity) relation opened by a
// framework event and closed by the matching end event. The engine charges
// the driven side's energy to the driving side for exactly the slices that
// fall inside the window — "only the part of energy consumption during the
// attack lifecycle would be superimposed".
#pragma once

#include <cstdint>
#include <set>
#include <string>

#include "kernel/types.h"
#include "sim/time.h"

namespace eandroid::core {

enum class WindowKind : std::uint8_t {
  kActivity,    // Fig 5a: A started B's activity
  kInterrupt,   // Fig 5b: A's activity pushed B off the screen
  kService,     // Fig 5c: A started/bound B's service
  kScreen,      // Fig 5d: A escalated brightness / forced manual mode
  kWakelock,    // Fig 5e: A holds a screen wakelock while not foreground
  kPush,        // extension: A pushed a message that woke B (bounded window)
};

const char* to_string(WindowKind kind);

struct Window {
  std::uint64_t id = 0;
  WindowKind kind{};
  kernelsim::Uid driver;
  /// Driven app for activity/interrupt/service; unset for screen/wakelock
  /// (those drive the Screen entity).
  kernelsim::Uid driven;
  sim::TimePoint opened;

  // kScreen: panel level before the attack began.
  int baseline_brightness = -1;
  // kWakelock: the wakelock this window follows.
  std::uint64_t wakelock_handle = 0;
  // kService: liveness state — open while started || !bindings.empty().
  bool started = false;
  std::set<std::uint64_t> bindings;
  std::string component;
};

}  // namespace eandroid::core
