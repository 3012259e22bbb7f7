// Locks every enum's string table to its values (catches silently-added
// enumerators whose to_string falls through to "?").
#include <gtest/gtest.h>

#include <string>

#include "core/detector.h"
#include "core/window.h"
#include "framework/activity_manager.h"
#include "framework/events.h"
#include "fuzz/program.h"

namespace eandroid {
namespace {

TEST(EnumStringsTest, FwEventTypesAllNamed) {
  using framework::FwEventType;
  for (FwEventType type : {
           FwEventType::kActivityStart, FwEventType::kActivityMoveToFront,
           FwEventType::kActivityInterrupt, FwEventType::kForegroundChange,
           FwEventType::kActivityFinish, FwEventType::kAppDestroyed,
           FwEventType::kServiceStart, FwEventType::kServiceStop,
           FwEventType::kServiceStopSelf, FwEventType::kServiceBind,
           FwEventType::kServiceUnbind, FwEventType::kBrightnessChange,
           FwEventType::kScreenModeChange, FwEventType::kScreenOn,
           FwEventType::kScreenOff, FwEventType::kWakelockAcquire,
           FwEventType::kWakelockRelease, FwEventType::kBroadcastDelivered,
           FwEventType::kAlarmFired, FwEventType::kPushDelivered,
           FwEventType::kAnr,
       }) {
    EXPECT_STRNE(framework::to_string(type), "unknown");
    EXPECT_STRNE(framework::to_string(type), "?");
  }
  EXPECT_STREQ(framework::to_string(FwEventType::kActivityStart),
               "activity_start");
  EXPECT_STREQ(framework::to_string(FwEventType::kPushDelivered),
               "push_delivered");
}

TEST(EnumStringsTest, WindowKindsAllNamed) {
  using core::WindowKind;
  for (WindowKind kind :
       {WindowKind::kActivity, WindowKind::kInterrupt, WindowKind::kService,
        WindowKind::kScreen, WindowKind::kWakelock, WindowKind::kPush}) {
    EXPECT_STRNE(core::to_string(kind), "?");
  }
  EXPECT_STREQ(core::to_string(WindowKind::kWakelock), "wakelock");
}

TEST(EnumStringsTest, ActivityStatesAllNamed) {
  using State = framework::ActivityRecord::State;
  for (State state :
       {State::kResumed, State::kPaused, State::kStopped, State::kDestroyed}) {
    EXPECT_STRNE(framework::to_string(state), "?");
  }
  EXPECT_STREQ(framework::to_string(State::kResumed), "resumed");
}

TEST(EnumStringsTest, FaultKindsAllNamed) {
  // The grammar's fault ops; their tokens also name the `fault` trace
  // marks, so each must round-trip.
  using fuzz::OpKind;
  for (OpKind op : {OpKind::kKillApp, OpKind::kHangToggle,
                    OpKind::kBinderFailWindow, OpKind::kDropBroadcasts,
                    OpKind::kDelayAlarms, OpKind::kBatteryExhaust}) {
    OpKind parsed = OpKind::kUserLaunch;
    EXPECT_TRUE(fuzz::op_from_string(fuzz::to_string(op), &parsed));
    EXPECT_EQ(parsed, op);
  }
  EXPECT_STREQ(fuzz::to_string(OpKind::kBatteryExhaust), "battery_exhaust");
}

TEST(EnumStringsTest, AlertKindsAllNamed) {
  using core::AlertKind;
  for (AlertKind kind :
       {AlertKind::kCollateralAttacker, AlertKind::kScreenAbuser,
        AlertKind::kNoSleepBug}) {
    EXPECT_STRNE(core::to_string(kind), "?");
  }
}

}  // namespace
}  // namespace eandroid
