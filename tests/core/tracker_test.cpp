// WindowTracker tests: one section per Fig 5 state machine.
#include "core/window_tracker.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "framework/system_server.h"
#include "sim/simulator.h"
#include "tests/framework/helpers.h"

namespace eandroid::core {
namespace {

using framework::BrightnessMode;
using framework::FwEventType;
using framework::Intent;
using framework::Manifest;
using framework::Permission;
using framework::ServiceDecl;
using framework::WakelockType;
using framework::testing::RecordingApp;
using framework::testing::simple_manifest;

class TrackerTest : public ::testing::Test {
 protected:
  TrackerTest() : server_(sim_) {
    install("com.a");
    install("com.b");
    Manifest svc = simple_manifest("com.svc");
    svc.services.push_back(ServiceDecl{"Work", /*exported=*/true, {}});
    server_.install(std::move(svc), std::make_unique<RecordingApp>());

    Manifest power = simple_manifest("com.power");
    power.permissions = {Permission::kWakeLock, Permission::kWriteSettings};
    server_.install(std::move(power), std::make_unique<RecordingApp>());

    server_.boot();
    tracker_ = std::make_unique<WindowTracker>(server_);
  }

  void install(const std::string& package) {
    server_.install(simple_manifest(package),
                    std::make_unique<RecordingApp>());
  }
  kernelsim::Uid uid(const std::string& package) {
    return server_.packages().find(package)->uid;
  }
  framework::Context& ctx(const std::string& package) {
    server_.ensure_process(uid(package));
    return server_.context_of(uid(package));
  }

  sim::Simulator sim_;
  framework::SystemServer server_;
  std::unique_ptr<WindowTracker> tracker_;
};

// --- Fig 5a: activity windows ---

TEST_F(TrackerTest, CrossAppStartOpensActivityWindow) {
  server_.user_launch("com.a");
  ctx("com.a").start_activity(Intent::explicit_for("com.b", "Main"));
  EXPECT_TRUE(tracker_->has_window(WindowKind::kActivity, uid("com.a"),
                                   uid("com.b")));
}

TEST_F(TrackerTest, UserLaunchOpensNoWindow) {
  server_.user_launch("com.a");
  EXPECT_EQ(tracker_->open_count(), 0u);
}

TEST_F(TrackerTest, SameAppStartOpensNoWindow) {
  server_.user_launch("com.a");
  ctx("com.a").start_activity(Intent::explicit_for("com.a", "Main"));
  EXPECT_EQ(tracker_->open_count(), 0u);
}

TEST_F(TrackerTest, ActivityWindowClosesWhenUserRestartsDrivenApp) {
  server_.user_launch("com.a");
  ctx("com.a").start_activity(Intent::explicit_for("com.b", "Main"));
  ASSERT_EQ(tracker_->open_count(), 1u);
  server_.user_launch("com.b");  // "attack ends when the app is started again"
  EXPECT_FALSE(tracker_->has_window(WindowKind::kActivity, uid("com.a"),
                                    uid("com.b")));
}

TEST_F(TrackerTest, ActivityWindowClosesOnUserMoveToFront) {
  server_.user_launch("com.b");
  server_.user_launch("com.a");
  ctx("com.a").start_activity(Intent::explicit_for("com.b", "Main"));
  ASSERT_TRUE(tracker_->has_window(WindowKind::kActivity, uid("com.a"),
                                   uid("com.b")));
  server_.user_press_home();
  server_.user_switch_to("com.b");  // recents
  EXPECT_FALSE(tracker_->has_window(WindowKind::kActivity, uid("com.a"),
                                    uid("com.b")));
}

TEST_F(TrackerTest, DuplicateStartKeepsOneWindowPerDriver) {
  server_.user_launch("com.a");
  ctx("com.a").start_activity(Intent::explicit_for("com.b", "Main"));
  server_.user_switch_to("com.a");
  ctx("com.a").start_activity(Intent::explicit_for("com.b", "Main"));
  int count = 0;
  for (const auto& [id, w] : tracker_->open_windows()) {
    if (w.kind == WindowKind::kActivity) ++count;
  }
  EXPECT_EQ(count, 1);
}

TEST_F(TrackerTest, WindowClosesWhenDrivenAppDies) {
  server_.user_launch("com.a");
  ctx("com.a").start_activity(Intent::explicit_for("com.b", "Main"));
  server_.kill_app(uid("com.b"));
  EXPECT_EQ(tracker_->open_count(), 0u);
}

// --- Fig 5b: interrupt windows ---

TEST_F(TrackerTest, AppSendingHomeOpensInterruptWindow) {
  server_.user_launch("com.a");
  ctx("com.b").start_home();
  EXPECT_TRUE(tracker_->has_window(WindowKind::kInterrupt, uid("com.b"),
                                   uid("com.a")));
}

TEST_F(TrackerTest, UserHomeOpensNoInterruptWindow) {
  server_.user_launch("com.a");
  server_.user_press_home();
  EXPECT_EQ(tracker_->open_count(), 0u);
}

TEST_F(TrackerTest, InterruptWindowClosesWhenVictimResumes) {
  server_.user_launch("com.a");
  ctx("com.b").start_home();
  ASSERT_EQ(tracker_->open_count(), 1u);
  server_.user_switch_to("com.a");
  EXPECT_EQ(tracker_->open_count(), 0u);
}

// --- Fig 5c: service windows ---

TEST_F(TrackerTest, CrossAppServiceStartOpensWindow) {
  ctx("com.a").start_service(Intent::explicit_for("com.svc", "Work"));
  const Window* window =
      tracker_->find_window(WindowKind::kService, uid("com.a"), uid("com.svc"));
  ASSERT_NE(window, nullptr);
  EXPECT_TRUE(window->started);
  EXPECT_EQ(window->component, "Work");
}

TEST_F(TrackerTest, OwnServiceStartOpensNoWindow) {
  ctx("com.svc").start_service(Intent::explicit_for("com.svc", "Work"));
  EXPECT_EQ(tracker_->open_count(), 0u);
}

TEST_F(TrackerTest, ServiceWindowClosesOnStop) {
  ctx("com.a").start_service(Intent::explicit_for("com.svc", "Work"));
  ctx("com.a").stop_service(Intent::explicit_for("com.svc", "Work"));
  EXPECT_EQ(tracker_->open_count(), 0u);
}

TEST_F(TrackerTest, ServiceWindowClosesOnStopSelf) {
  ctx("com.a").start_service(Intent::explicit_for("com.svc", "Work"));
  ctx("com.svc").stop_self("Work");
  EXPECT_EQ(tracker_->open_count(), 0u);
}

TEST_F(TrackerTest, BindingKeepsWindowOpenThroughStop) {
  // The attack #3 shape: bind + start, stop clears only the started leg.
  const auto binding =
      ctx("com.a").bind_service(Intent::explicit_for("com.svc", "Work"));
  ASSERT_TRUE(binding.has_value());
  ctx("com.a").start_service(Intent::explicit_for("com.svc", "Work"));
  ctx("com.a").stop_service(Intent::explicit_for("com.svc", "Work"));
  EXPECT_TRUE(tracker_->has_window(WindowKind::kService, uid("com.a"),
                                   uid("com.svc")));
  ctx("com.a").unbind_service(*binding);
  EXPECT_EQ(tracker_->open_count(), 0u);
}

TEST_F(TrackerTest, ClientDeathClosesServiceWindow) {
  ctx("com.a").bind_service(Intent::explicit_for("com.svc", "Work"));
  ASSERT_EQ(tracker_->open_count(), 1u);
  server_.kill_app(uid("com.a"));
  EXPECT_EQ(tracker_->open_count(), 0u);
}

// --- Fig 5d: screen windows ---

TEST_F(TrackerTest, BackgroundBrightnessIncreaseOpensScreenWindow) {
  server_.user_set_screen_mode(BrightnessMode::kManual);
  server_.user_set_brightness(100);
  ctx("com.power").set_brightness(200);
  const Window* window = tracker_->find_window(
      WindowKind::kScreen, uid("com.power"), kernelsim::Uid{});
  ASSERT_NE(window, nullptr);
  EXPECT_EQ(window->baseline_brightness, 100);
}

TEST_F(TrackerTest, ForcedManualModeOpensScreenWindow) {
  // Auto mode; the malware stores a high value then flips to manual.
  ctx("com.power").set_brightness(250);
  EXPECT_EQ(tracker_->open_count(), 0u);  // stored, not applied
  ctx("com.power").set_screen_mode(BrightnessMode::kManual);
  const Window* window = tracker_->find_window(
      WindowKind::kScreen, uid("com.power"), kernelsim::Uid{});
  ASSERT_NE(window, nullptr);
  EXPECT_EQ(window->baseline_brightness, 102);  // panel level pre-switch
}

TEST_F(TrackerTest, UserBrightnessChangeClosesScreenWindows) {
  server_.user_set_screen_mode(BrightnessMode::kManual);
  ctx("com.power").set_brightness(220);
  ASSERT_EQ(tracker_->open_count(), 1u);
  server_.user_set_brightness(90);
  EXPECT_EQ(tracker_->open_count(), 0u);
}

TEST_F(TrackerTest, AttackerRestoringBrightnessClosesWindow) {
  server_.user_set_screen_mode(BrightnessMode::kManual);
  server_.user_set_brightness(100);
  ctx("com.power").set_brightness(220);
  ASSERT_EQ(tracker_->open_count(), 1u);
  ctx("com.power").set_brightness(100);  // back to baseline
  EXPECT_EQ(tracker_->open_count(), 0u);
}

TEST_F(TrackerTest, PartialDecreaseKeepsWindowOpen) {
  server_.user_set_screen_mode(BrightnessMode::kManual);
  server_.user_set_brightness(100);
  ctx("com.power").set_brightness(220);
  ctx("com.power").set_brightness(150);  // still above baseline 100
  EXPECT_EQ(tracker_->open_count(), 1u);
}

TEST_F(TrackerTest, SwitchToAutoClosesScreenWindows) {
  server_.user_set_screen_mode(BrightnessMode::kManual);
  ctx("com.power").set_brightness(220);
  ASSERT_EQ(tracker_->open_count(), 1u);
  server_.user_set_screen_mode(BrightnessMode::kAuto);
  EXPECT_EQ(tracker_->open_count(), 0u);
}

TEST_F(TrackerTest, BrightnessDecreaseAloneOpensNothing) {
  server_.user_set_screen_mode(BrightnessMode::kManual);
  server_.user_set_brightness(200);
  ctx("com.power").set_brightness(50);
  EXPECT_EQ(tracker_->open_count(), 0u);
}

// --- Fig 5e: wakelock windows ---

TEST_F(TrackerTest, BackgroundAcquireOpensWakelockWindow) {
  // com.power is not foreground (launcher is).
  ctx("com.power").acquire_wakelock(WakelockType::kScreenBright, "t");
  EXPECT_TRUE(tracker_->has_window(WindowKind::kWakelock, uid("com.power"),
                                   kernelsim::Uid{}));
}

TEST_F(TrackerTest, ForegroundAcquireOpensNoWindow) {
  server_.user_launch("com.power");
  ctx("com.power").acquire_wakelock(WakelockType::kScreenBright, "t");
  EXPECT_EQ(tracker_->open_count(), 0u);
}

TEST_F(TrackerTest, PartialWakelockOpensNoWindow) {
  ctx("com.power").acquire_wakelock(WakelockType::kPartial, "t");
  EXPECT_EQ(tracker_->open_count(), 0u);
}

TEST_F(TrackerTest, LeavingForegroundWithHeldLockOpensWindow) {
  server_.user_launch("com.power");
  ctx("com.power").acquire_wakelock(WakelockType::kScreenBright, "t");
  EXPECT_EQ(tracker_->open_count(), 0u);
  server_.user_press_home();  // left foreground without releasing
  EXPECT_TRUE(tracker_->has_window(WindowKind::kWakelock, uid("com.power"),
                                   kernelsim::Uid{}));
}

TEST_F(TrackerTest, ReleaseClosesWakelockWindow) {
  const auto lock =
      ctx("com.power").acquire_wakelock(WakelockType::kScreenBright, "t");
  ASSERT_EQ(tracker_->open_count(), 1u);
  ctx("com.power").release_wakelock(*lock);
  EXPECT_EQ(tracker_->open_count(), 0u);
}

TEST_F(TrackerTest, DeathReleaseClosesWakelockWindow) {
  ctx("com.power").acquire_wakelock(WakelockType::kScreenBright, "t");
  ASSERT_EQ(tracker_->open_count(), 1u);
  server_.kill_app(uid("com.power"));
  EXPECT_EQ(tracker_->open_count(), 0u);
}

// --- misc ---

TEST_F(TrackerTest, TraceRecordsOpensAndCloses) {
  // A listener subscribed after the tracker reads each event's opens and
  // closes off open_windows(), as fig05_lifecycle_trace does.
  std::set<std::uint64_t> seen;
  std::vector<std::pair<bool, FwEventType>> trace;
  server_.events().subscribe([&](const framework::FwEvent& event) {
    std::set<std::uint64_t> open;
    for (const auto& [id, w] : tracker_->open_windows()) open.insert(id);
    for (std::uint64_t id : seen) {
      if (!open.contains(id)) trace.emplace_back(false, event.type);
    }
    for (std::uint64_t id : open) {
      if (!seen.contains(id)) trace.emplace_back(true, event.type);
    }
    seen = std::move(open);
  });
  server_.user_launch("com.a");
  ctx("com.a").start_activity(Intent::explicit_for("com.b", "Main"));
  server_.user_launch("com.b");
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0], std::make_pair(true, FwEventType::kActivityStart));
  EXPECT_EQ(trace[1], std::make_pair(false, FwEventType::kActivityStart));
  EXPECT_EQ(tracker_->opened_total(), 1u);
  EXPECT_EQ(tracker_->closed_total(), 1u);
}

}  // namespace
}  // namespace eandroid::core
