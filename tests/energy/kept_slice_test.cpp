// Change-driven metering tick (the `metering` ctest label). A tick keeps
// its previous slice only when nothing GATHER reads has changed. Each test
// drives one input that changes without a call the scheduler or the
// session components count — a tail running out, a process spawning
// under a registered load, the user-activity timeout, screen settings —
// and checks that no tick hands the fold a stale slice.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "energy/sampler.h"
#include "framework/system_server.h"
#include "sim/simulator.h"
#include "tests/framework/helpers.h"

namespace eandroid::energy {
namespace {

using framework::testing::RecordingApp;
using framework::testing::simple_manifest;

/// Checks at every tick that the slice carries what a full rebuild would
/// read at that instant — screen state, foreground, the wakelock-forced
/// flag and its owners, and each session component's per-uid power — and
/// records the slices.
class FreshnessSink : public AccountingSink {
 public:
  explicit FreshnessSink(framework::SystemServer& server) : server_(server) {}

  void on_slice(const EnergySlice& slice) override {
    slices.push_back(slice);
    const double len = slice.length().seconds();
    const hw::Screen& screen = server_.screen();
    EXPECT_EQ(slice.screen_on, screen.on());
    EXPECT_EQ(slice.brightness, screen.brightness());
    EXPECT_EQ(slice.screen_mj, screen.power_mw() * len);
    EXPECT_EQ(slice.foreground, server_.activities().foreground_uid());
    const bool forced =
        screen.on() && server_.power().screen_forced_by_wakelock();
    EXPECT_EQ(slice.screen_forced_by_wakelock, forced);
    if (forced) {
      EXPECT_EQ(slice.screen_wakelock_owners,
                server_.power().screen_wakelock_owners());
    } else {
      EXPECT_TRUE(slice.screen_wakelock_owners.empty());
    }
    check_component(slice, server_.camera(), HwPart::kCamera, len);
    check_component(slice, server_.gps(), HwPart::kGps, len);
    check_component(slice, server_.wifi(), HwPart::kWifi, len);
    check_component(slice, server_.audio(), HwPart::kAudio, len);
  }

  std::vector<EnergySlice> slices;

 private:
  static double cell(const EnergySlice& slice, kernelsim::AppIdx idx,
                     HwPart part) {
    switch (part) {
      case HwPart::kCamera: return slice.camera_mj(idx);
      case HwPart::kGps: return slice.gps_mj(idx);
      case HwPart::kWifi: return slice.wifi_mj(idx);
      case HwPart::kAudio: return slice.audio_mj(idx);
      default: return 0.0;
    }
  }

  static void check_component(const EnergySlice& slice,
                              const hw::SessionComponent& component,
                              HwPart part, double len) {
    const hw::PowerBreakdown now = component.breakdown();
    for (const kernelsim::AppIdx idx : slice.active()) {
      EXPECT_EQ(cell(slice, idx, part), now.of(slice.uid_at(idx)) * len)
          << component.name() << " cell of uid " << slice.uid_at(idx).value
          << " at " << slice.end.micros() << "us";
    }
    for (const auto& [uid, mw] : now.by_uid) {
      EXPECT_TRUE(slice.active_at(slice.ids().find_app(uid)))
          << component.name() << " power of uid " << uid.value
          << " missing at " << slice.end.micros() << "us";
    }
  }

  framework::SystemServer& server_;
};

class KeptSliceTest : public ::testing::Test {
 protected:
  KeptSliceTest()
      : server_(sim_), sampler_(server_, sim::millis(250)), sink_(server_) {
    framework::Manifest m = simple_manifest("com.app");
    m.permissions.push_back(framework::Permission::kWakeLock);
    server_.install(std::move(m), std::make_unique<RecordingApp>());
    server_.boot();
    sampler_.add_sink(&sink_);
    sampler_.start();
  }

  kernelsim::Uid uid() { return server_.packages().find("com.app")->uid; }
  framework::Context& ctx() {
    server_.ensure_process(uid());
    return server_.context_of(uid());
  }
  /// Runs one tick and reports whether its GATHER kept the slice.
  bool tick_kept() {
    const std::uint64_t before = sampler_.gathers_reused();
    sim_.run_for(sim::millis(250));
    return sampler_.gathers_reused() == before + 1;
  }

  sim::Simulator sim_;
  framework::SystemServer server_;
  EnergySampler sampler_;
  FreshnessSink sink_;
};

TEST_F(KeptSliceTest, QuietDeviceKeepsItsSliceAfterTheFirstTick) {
  // The first tick builds the slice from a mutation-free CPU window of the
  // period's length; from the second on, nothing has changed.
  sim_.run_for(sim::seconds(10));
  ASSERT_EQ(sampler_.slices_emitted(), 40u);
  EXPECT_EQ(sampler_.gathers_reused(), sampler_.slices_emitted() - 1);
  // A kept slice is the previous one with its window moved.
  for (std::size_t i = 1; i < sink_.slices.size(); ++i) {
    EXPECT_EQ(sink_.slices[i].total_mj(), sink_.slices[0].total_mj());
    EXPECT_EQ(sink_.slices[i].begin, sink_.slices[i - 1].end);
  }
}

TEST_F(KeptSliceTest, SessionTailExpiringBetweenTicksRebuilds) {
  // Camera tail is 500 ms: ending the session 100 ms into a window makes
  // it run out 100 ms into the window after next, with no call.
  const hw::SessionId session = ctx().camera_begin();
  sim_.run_for(sim::seconds(1) + sim::millis(100));
  ctx().camera_end(session);
  sim_.run_for(sim::seconds(3));
  EXPECT_FALSE(server_.camera().active());
  EXPECT_TRUE(server_.camera().time_stable());
  // The last slices are kept again, and (per the sink) without the tail.
  EXPECT_TRUE(tick_kept());
  const EnergySlice& last = sink_.slices.back();
  EXPECT_FALSE(last.active_at(last.ids().find_app(uid())));
}

TEST_F(KeptSliceTest, LoadRegisteredBeforeItsProcessSpawns) {
  // Learn the next pid, then register a load on it before it exists.
  kernelsim::ProcessTable& processes = server_.processes();
  const kernelsim::Pid probe = processes.spawn(uid(), "com.app:probe");
  processes.kill(probe);
  const kernelsim::Pid future{probe.value + 1};
  server_.cpu().add_load(future, 0.5);
  sim_.run_for(sim::seconds(1));
  const kernelsim::AppIdx idx = server_.ids().app_of(uid());
  EXPECT_FALSE(sink_.slices.back().active_at(idx));

  // The spawn is no scheduler call; the next window must still see it.
  ASSERT_EQ(processes.spawn(uid(), "com.app"), future);
  sink_.slices.clear();
  sim_.run_for(sim::seconds(1));
  ASSERT_EQ(sink_.slices.size(), 4u);
  for (const EnergySlice& slice : sink_.slices) {
    ASSERT_TRUE(slice.active_at(idx));
    EXPECT_GT(slice.cpu_mj(idx), 0.0);
  }
  EXPECT_TRUE(tick_kept());
}

TEST_F(KeptSliceTest, ScreenBecomesWakelockForcedAtTheUserTimeout) {
  ctx().acquire_wakelock(framework::WakelockType::kScreenBright, "t");
  sim_.run_for(sim::seconds(40));  // the 30 s user-activity timeout passes
  bool saw_unforced = false;
  bool saw_forced = false;
  for (const EnergySlice& slice : sink_.slices) {
    if (slice.screen_forced_by_wakelock) {
      saw_forced = true;
    } else {
      EXPECT_FALSE(saw_forced) << "forced flag went back without a call";
      saw_unforced = true;
    }
  }
  EXPECT_TRUE(saw_unforced);
  EXPECT_TRUE(saw_forced);
  EXPECT_TRUE(tick_kept());
}

TEST_F(KeptSliceTest, MidWindowSetDutyAndBurstRebuildTheNextTwoTicks) {
  const kernelsim::Pid pid = server_.ensure_process(uid());
  const kernelsim::LoadHandle load = server_.cpu().add_load(pid, 0.3);
  sim_.run_for(sim::seconds(1));
  ASSERT_TRUE(tick_kept());
  const std::size_t steady = sink_.slices.size() - 1;

  // Mid-window duty change: the window holding it is time-weighted, the
  // next one has the new duty; both are rebuilt, the third is kept.
  std::uint64_t reused = sampler_.gathers_reused();
  sim_.run_for(sim::millis(100));
  server_.cpu().set_duty(load, 0.6);
  sim_.run_for(sim::millis(150));
  ASSERT_EQ(sink_.slices.size(), steady + 2);
  EXPECT_EQ(sampler_.gathers_reused(), reused);
  EXPECT_FALSE(tick_kept());
  EXPECT_TRUE(tick_kept());
  const kernelsim::AppIdx idx = server_.ids().app_of(uid());
  const std::size_t mixed = steady + 1;
  EXPECT_GT(sink_.slices[mixed].cpu_mj(idx), sink_.slices[steady].cpu_mj(idx));
  EXPECT_GT(sink_.slices[mixed + 1].cpu_mj(idx),
            sink_.slices[mixed].cpu_mj(idx));
  EXPECT_EQ(sink_.slices[mixed + 2].cpu_mj(idx),
            sink_.slices[mixed + 1].cpu_mj(idx));

  // A burst: charged to the window it lands in, gone from the next.
  reused = sampler_.gathers_reused();
  sim_.run_for(sim::millis(100));
  server_.cpu().charge_burst(pid, sim::millis(20));
  sim_.run_for(sim::millis(150));
  const std::size_t burst = sink_.slices.size() - 1;
  EXPECT_EQ(sampler_.gathers_reused(), reused);
  EXPECT_FALSE(tick_kept());
  EXPECT_TRUE(tick_kept());
  EXPECT_GT(sink_.slices[burst].cpu_mj(idx),
            sink_.slices[burst + 1].cpu_mj(idx));
  EXPECT_EQ(sink_.slices[burst + 1].cpu_mj(idx),
            sink_.slices[mixed + 1].cpu_mj(idx));
}

TEST_F(KeptSliceTest, BrightnessAndForegroundChangesRebuild) {
  sim_.run_for(sim::seconds(1));
  ASSERT_TRUE(tick_kept());
  server_.user_set_screen_mode(framework::BrightnessMode::kManual);
  server_.user_set_brightness(220);
  EXPECT_FALSE(tick_kept());
  EXPECT_EQ(sink_.slices.back().brightness, 220);
  EXPECT_TRUE(tick_kept());

  server_.user_launch("com.app");
  sim_.run_for(sim::seconds(2));
  EXPECT_EQ(sink_.slices.back().foreground, uid());
  EXPECT_TRUE(tick_kept());
}

}  // namespace
}  // namespace eandroid::energy
