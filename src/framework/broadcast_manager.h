// BroadcastManager: Android's broadcast intent delivery.
//
// Two roles in the reproduction:
//  * substrate fidelity — system broadcasts (ACTION_USER_PRESENT on
//    unlock, ACTION_BATTERY_LOW) wake manifest-registered receivers,
//    spawning their processes; this is the stealth auto-launch channel
//    §V of the paper describes malware using;
//  * a further IPC channel for collateral energy — a broadcast can make
//    another app do work, so deliveries are published on the event bus
//    with (driving = sender, driven = receiver), letting profilers see
//    the trigger (the paper's E-Android monitors "a series of events
//    that potentially lead to a collateral energy attack").
//
// Receivers get a small CPU burst for onReceive() and may start further
// components from their callback, which then flows through the ordinary
// activity/service machinery.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "framework/app_host.h"
#include "framework/events.h"
#include "framework/package_manager.h"
#include "kernel/binder.h"
#include "kernel/cpu_sched.h"
#include "sim/simulator.h"

namespace eandroid::framework {

/// Well-known system actions.
inline constexpr const char* kActionUserPresent =
    "android.intent.action.USER_PRESENT";
inline constexpr const char* kActionBatteryLow =
    "android.intent.action.BATTERY_LOW";
inline constexpr const char* kActionBootCompleted =
    "android.intent.action.BOOT_COMPLETED";
inline constexpr const char* kActionPowerConnected =
    "android.intent.action.ACTION_POWER_CONNECTED";
inline constexpr const char* kActionPowerDisconnected =
    "android.intent.action.ACTION_POWER_DISCONNECTED";

class BroadcastManager {
 public:
  BroadcastManager(sim::Simulator& sim, PackageManager& packages,
                   kernelsim::BinderDriver& binder,
                   kernelsim::CpuScheduler& cpu, AppHost& host,
                   EventBus& events);

  /// Sends a broadcast from `sender` (an app or, with by_system, the
  /// framework itself). Every manifest-registered receiver matching the
  /// action is woken and delivered to, in deterministic package order.
  /// Returns the number of deliveries.
  int send_broadcast(kernelsim::Uid sender, const std::string& action,
                     bool by_system = false);

  /// Dynamic registration (Context.registerReceiver analog).
  void register_receiver(kernelsim::Uid uid, const std::string& action);
  void unregister_receiver(kernelsim::Uid uid, const std::string& action);

  [[nodiscard]] std::uint64_t deliveries() const { return delivered_; }

  /// Fault injection: the next `n` individual deliveries are dropped on
  /// the floor — the receiver is not woken, gets no onReceive, and no
  /// kBroadcastDelivered is published (the event bus mirrors what apps
  /// actually observe).
  void drop_next(std::uint64_t n) { drop_budget_ += n; }
  [[nodiscard]] std::uint64_t dropped_total() const { return dropped_; }

 private:
  sim::Simulator& sim_;
  PackageManager& packages_;
  kernelsim::BinderDriver& binder_;
  kernelsim::CpuScheduler& cpu_;
  AppHost& host_;
  EventBus& events_;
  std::unordered_map<std::string, std::vector<kernelsim::Uid>> dynamic_;
  std::uint64_t delivered_ = 0;
  std::uint64_t drop_budget_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace eandroid::framework
