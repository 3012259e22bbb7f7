// The paper's experiment scenarios (§VI-A, Fig 9), reusable from tests,
// benches, and examples.
//
// Each scenario builds a fresh Testbed, drives the same user/malware
// actions the paper describes, and returns the three profilers' views so
// callers can compare "A" (Android), "A+PT" (PowerTutor), and "E"
// (E-Android) exactly like Fig 9's paired bars.
//
// Every entry point takes a trailing TestbedOptions `base`: the seed
// argument overrides base.seed, everything else (engine config, power
// params, observability) is honored as given.
#pragma once

#include <memory>
#include <string>

#include "apps/testbed.h"
#include "core/battery_interface.h"
#include "energy/battery_view.h"

namespace eandroid::apps {

struct ScenarioResult {
  std::string name;
  energy::BatteryView android_view;     // stock BatteryStats
  energy::BatteryView powertutor_view;  // stock PowerTutor
  core::EAView ea_view;                 // E-Android revised interface
  double battery_drained_mj = 0.0;
  /// Collateral windows opened/closed during the run.
  std::uint64_t windows_opened = 0;
  std::uint64_t windows_closed = 0;
  /// Exports of the device trace when base.obs.trace was set, empty
  /// otherwise. The golden-trace suite pins trace_text byte-for-byte;
  /// trace_json is the Chrome trace_event form (Perfetto-loadable),
  /// shipped as a CI artifact when a golden drifts.
  std::string trace_text;
  std::string trace_json;
};

/// Scene #1 (Fig 9a): open Message 30 s, then film a 30 s video through
/// the implicit VIDEO_CAPTURE intent; Camera returns to Message.
ScenarioResult run_scene1(std::uint64_t seed = 1,
                         const TestbedOptions& base = {});

/// Scene #2 (Fig 9b): Contacts opens Message, Message films a 30 s video —
/// the legitimate hybrid chain of Fig 7/8.
ScenarioResult run_scene2(std::uint64_t seed = 1,
                         const TestbedOptions& base = {});

/// Attack #1: malware hijacks the Camera's exported capture activity.
ScenarioResult run_attack1(std::uint64_t seed = 1,
                          const TestbedOptions& base = {});

/// Attack #2: malware opens two victim apps into background tasks and
/// reburies itself.
ScenarioResult run_attack2(std::uint64_t seed = 1,
                          const TestbedOptions& base = {});

/// Attack #3 (Fig 9c): victim starts and immediately stops its service;
/// malware's never-released binding keeps it burning for the rest of the
/// run.
ScenarioResult run_attack3(std::uint64_t seed = 1,
                          const TestbedOptions& base = {});

/// Attack #4 (Fig 9d): click-hijack of the victim's exit dialog; the
/// victim is stopped in background with its screen wakelock leaked.
ScenarioResult run_attack4(std::uint64_t seed = 1,
                          const TestbedOptions& base = {});

/// Attack #5 (Fig 9e): background brightness escalation to `brightness`.
ScenarioResult run_attack5(std::uint64_t seed = 1, int brightness = 255,
                           const TestbedOptions& base = {});

/// Attack #6 (Fig 9f): service-held screen wakelock never released. When
/// `release_lock` is set the malware releases after 5 s (the paper's
/// "releases/does not release" comparison).
ScenarioResult run_attack6(std::uint64_t seed = 1,
                           bool release_lock = false,
                           const TestbedOptions& base = {});

/// Fig 7 as an attack chain: malware binds B's service; B's service
/// starts C's activity; C escalates brightness. Everything must land on
/// the malware's account through chain propagation.
ScenarioResult run_chain_attack(std::uint64_t seed = 1,
                               const TestbedOptions& base = {});

/// §III-B multi & hybrid attack: stealth-launched malware (USER_PRESENT)
/// that pins the victim's service and escalates brightness.
ScenarioResult run_multi_attack(std::uint64_t seed = 1,
                               const TestbedOptions& base = {});

/// Related-work network attack (extension): malware floods the victim
/// with pushes; the radio and wake-up cost land on the victim under stock
/// accounting and on the flooder under E-Android.
ScenarioResult run_push_flood(std::uint64_t seed = 1,
                             const TestbedOptions& base = {});

/// Benign collateral (§III-A): an incoming call interrupts an app with
/// the wakelock bug; no malware anywhere, yet E-Android shows who holds
/// the screen on.
ScenarioResult run_benign_interruption(std::uint64_t seed = 1,
                                      const TestbedOptions& base = {});

/// Renders the paper's A-vs-E comparison for one scenario.
std::string render_comparison(const ScenarioResult& result);

}  // namespace eandroid::apps
