#include "framework/power_manager.h"

#include <gtest/gtest.h>

#include <memory>

#include "framework/system_server.h"
#include "sim/simulator.h"
#include "tests/framework/helpers.h"

namespace eandroid::framework {
namespace {

using testing::EventLog;
using testing::RecordingApp;

class PowerManagerTest : public ::testing::Test {
 protected:
  PowerManagerTest() : server_(sim_) {
    Manifest locker = testing::simple_manifest("com.locker");
    locker.permissions.push_back(Permission::kWakeLock);
    server_.install(std::move(locker), std::make_unique<RecordingApp>());
    server_.install(testing::simple_manifest("com.plain"),
                    std::make_unique<RecordingApp>());
    server_.boot();
  }

  kernelsim::Uid uid(const std::string& package) {
    return server_.packages().find(package)->uid;
  }
  Context& ctx(const std::string& package) {
    server_.ensure_process(uid(package));
    return server_.context_of(uid(package));
  }

  sim::Simulator sim_;
  SystemServer server_;
};

TEST_F(PowerManagerTest, AcquireRequiresPermission) {
  EXPECT_TRUE(ctx("com.locker")
                  .acquire_wakelock(WakelockType::kPartial, "t")
                  .has_value());
  EXPECT_FALSE(ctx("com.plain")
                   .acquire_wakelock(WakelockType::kPartial, "t")
                   .has_value());
}

TEST_F(PowerManagerTest, ScreenTimesOutWithoutWakelock) {
  EXPECT_TRUE(server_.power().screen_on());
  sim_.run_for(server_.params().screen_timeout + sim::seconds(1));
  EXPECT_FALSE(server_.power().screen_on());
  // No wakelock at all: the device suspends.
  EXPECT_TRUE(server_.power().suspended());
}

TEST_F(PowerManagerTest, UserActivityRewindsTimeout) {
  sim_.run_for(sim::seconds(20));
  server_.power().user_activity();
  sim_.run_for(sim::seconds(20));
  EXPECT_TRUE(server_.power().screen_on());
  sim_.run_for(sim::seconds(11));
  EXPECT_FALSE(server_.power().screen_on());
}

TEST_F(PowerManagerTest, ScreenWakelockKeepsScreenOn) {
  const auto lock =
      ctx("com.locker").acquire_wakelock(WakelockType::kScreenBright, "t");
  ASSERT_TRUE(lock.has_value());
  sim_.run_for(sim::minutes(5));
  EXPECT_TRUE(server_.power().screen_on());
  EXPECT_TRUE(server_.power().screen_forced_by_wakelock());
  EXPECT_FALSE(server_.power().suspended());
}

TEST_F(PowerManagerTest, PartialWakelockKeepsCpuButNotScreen) {
  const auto lock =
      ctx("com.locker").acquire_wakelock(WakelockType::kPartial, "t");
  ASSERT_TRUE(lock.has_value());
  sim_.run_for(sim::minutes(5));
  EXPECT_FALSE(server_.power().screen_on());
  EXPECT_FALSE(server_.power().suspended());
}

TEST_F(PowerManagerTest, ScreenNotForcedWhileUserActive) {
  ctx("com.locker").acquire_wakelock(WakelockType::kFull, "t");
  server_.power().user_activity();
  EXPECT_TRUE(server_.power().screen_on());
  EXPECT_FALSE(server_.power().screen_forced_by_wakelock());
}

TEST_F(PowerManagerTest, ReleaseTurnsScreenOffAfterTimeout) {
  const auto lock =
      ctx("com.locker").acquire_wakelock(WakelockType::kScreenBright, "t");
  sim_.run_for(sim::minutes(2));
  EXPECT_TRUE(server_.power().screen_on());
  EXPECT_TRUE(ctx("com.locker").release_wakelock(*lock));
  // Releasing past the timeout drops the screen now.
  EXPECT_FALSE(server_.power().screen_on());
  EXPECT_TRUE(server_.power().suspended());
}

TEST_F(PowerManagerTest, OnlyOwnerCanRelease) {
  const auto lock =
      ctx("com.locker").acquire_wakelock(WakelockType::kPartial, "t");
  EXPECT_FALSE(server_.power().release(uid("com.plain"), *lock));
  EXPECT_TRUE(server_.power().release(uid("com.locker"), *lock));
  EXPECT_FALSE(server_.power().release(uid("com.locker"), *lock));  // twice
}

TEST_F(PowerManagerTest, LinkToDeathReleasesOnProcessKill) {
  ctx("com.locker").acquire_wakelock(WakelockType::kScreenBright, "t");
  EXPECT_EQ(server_.power().held_count(), 1u);
  EventLog log(server_.events());
  server_.kill_app(uid("com.locker"));
  EXPECT_EQ(server_.power().held_count(), 0u);
  EXPECT_EQ(log.count(FwEventType::kWakelockRelease), 1);
  sim_.run_for(sim::minutes(1));
  EXPECT_FALSE(server_.power().screen_on());
}

TEST_F(PowerManagerTest, HeldByAndOwnersQueries) {
  ctx("com.locker").acquire_wakelock(WakelockType::kPartial, "a");
  ctx("com.locker").acquire_wakelock(WakelockType::kFull, "b");
  EXPECT_EQ(server_.power().held_by(uid("com.locker")).size(), 2u);
  const auto owners = server_.power().screen_wakelock_owners();
  ASSERT_EQ(owners.size(), 1u);  // only the FULL lock keeps the screen
  EXPECT_EQ(owners[0], uid("com.locker"));
}

TEST_F(PowerManagerTest, EventsCarryScreenFlag) {
  EventLog log(server_.events());
  const auto lock =
      ctx("com.locker").acquire_wakelock(WakelockType::kScreenDim, "t");
  const FwEvent* acquire = log.last(FwEventType::kWakelockAcquire);
  ASSERT_NE(acquire, nullptr);
  EXPECT_TRUE(acquire->screen_wakelock);
  EXPECT_EQ(acquire->driving, uid("com.locker"));
  // Copy the handle now: the release below appends to the log, which may
  // reallocate and leave `acquire` dangling.
  const auto acquire_handle = acquire->handle;
  ctx("com.locker").release_wakelock(*lock);
  const FwEvent* release = log.last(FwEventType::kWakelockRelease);
  ASSERT_NE(release, nullptr);
  EXPECT_EQ(release->handle, acquire_handle);
}

TEST_F(PowerManagerTest, ScreenOffEventPublished) {
  EventLog log(server_.events());
  sim_.run_for(sim::minutes(1));
  EXPECT_EQ(log.count(FwEventType::kScreenOff), 1);
  server_.power().user_activity();
  EXPECT_EQ(log.count(FwEventType::kScreenOn), 1);
}

TEST_F(PowerManagerTest, SuspendFreezesCpuLoads) {
  ctx("com.plain").set_cpu_load("x", 0.5);
  sim_.run_for(sim::minutes(1));
  EXPECT_TRUE(server_.power().suspended());
  EXPECT_DOUBLE_EQ(server_.cpu().instantaneous_utilization(), 0.0);
}

TEST_F(PowerManagerTest, TimedWakelockAutoReleases) {
  // The acquire(long) overload: the defensive idiom against no-sleep bugs.
  const auto lock = ctx("com.locker")
                        .acquire_wakelock(WakelockType::kScreenBright, "t",
                                          sim::seconds(10));
  ASSERT_TRUE(lock.has_value());
  sim_.run_for(sim::seconds(9));
  EXPECT_EQ(server_.power().held_count(), 1u);
  sim_.run_for(sim::seconds(2));
  EXPECT_EQ(server_.power().held_count(), 0u);
  // Past the user-activity window, the screen drops with the lock.
  sim_.run_for(sim::minutes(1));
  EXPECT_FALSE(server_.power().screen_on());
}

TEST_F(PowerManagerTest, TimedWakelockExplicitReleaseFirstIsClean) {
  const auto lock = ctx("com.locker")
                        .acquire_wakelock(WakelockType::kPartial, "t",
                                          sim::seconds(10));
  EXPECT_TRUE(ctx("com.locker").release_wakelock(*lock));
  sim_.run_for(sim::seconds(20));  // the timer fires on a gone lock: no-op
  EXPECT_EQ(server_.power().held_count(), 0u);
}

TEST_F(PowerManagerTest, KeepsScreenOnHelper) {
  EXPECT_TRUE(keeps_screen_on(WakelockType::kScreenDim));
  EXPECT_TRUE(keeps_screen_on(WakelockType::kScreenBright));
  EXPECT_TRUE(keeps_screen_on(WakelockType::kFull));
  EXPECT_FALSE(keeps_screen_on(WakelockType::kPartial));
}

}  // namespace
}  // namespace eandroid::framework
