// Change-driven metering tick (the `metering` ctest label). A tick keeps
// its previous slice only when nothing GATHER reads has changed. Each test
// drives one input that changes without a call the scheduler or the
// session components count — a tail running out, a process spawning
// under a registered load, the user-activity timeout, screen settings —
// and checks that no tick hands the fold a stale slice. The InOneRun
// tests make each change inside a single run_until, where the metering
// timer runs its firings in place and an in-place firing after a kept
// tick skips the keep test; they check that such keeps happened around
// the change and that none of them kept a stale slice.

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
  /// Kept ticks whose keep test was skipped since the last call.
  std::uint64_t skipped_since_last() {
    const std::uint64_t now = sampler_.keep_tests_skipped();
    const std::uint64_t since = now - skipped_seen_;
    skipped_seen_ = now;
    return since;
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
  std::uint64_t skipped_seen_ = 0;
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

TEST_F(KeptSliceTest, QuietRunKeepsInPlaceWithoutTheKeepTest) {
  // One run: the first firing is the loop's, the other 39 run in place;
  // from the third on, each follows a kept tick.
  sim_.run_for(sim::seconds(10));
  EXPECT_EQ(sampler_.slices_emitted(), 40u);
  EXPECT_EQ(sampler_.ticks_in_place(), 39u);
  EXPECT_EQ(sampler_.gathers_reused(), 39u);
  EXPECT_EQ(sampler_.keep_tests_skipped(), 38u);
  // A run per tick: no firing runs in place, so every keep is tested.
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(tick_kept());
  EXPECT_EQ(sampler_.ticks_in_place(), 39u);
  EXPECT_EQ(sampler_.keep_tests_skipped(), 38u);
}

TEST_F(KeptSliceTest, UserTimeoutInOneRunForcesTheScreen) {
  ctx().acquire_wakelock(framework::WakelockType::kScreenBright, "t");
  sim_.run_for(sim::seconds(1));
  static_cast<void>(skipped_since_last());
  sink_.slices.clear();
  // The 30 s user-activity timeout passes inside this run. Its pending
  // reevaluate event ends the in-place stretch before it; the flag is
  // then read afresh (the sink checks every slice).
  sim_.run_for(sim::seconds(59));
  std::size_t flips = 0;
  for (std::size_t i = 1; i < sink_.slices.size(); ++i) {
    if (sink_.slices[i].screen_forced_by_wakelock !=
        sink_.slices[i - 1].screen_forced_by_wakelock) {
      ++flips;
      EXPECT_TRUE(sink_.slices[i].screen_forced_by_wakelock);
    }
  }
  EXPECT_EQ(flips, 1u);
  EXPECT_TRUE(sink_.slices.back().screen_forced_by_wakelock);
  EXPECT_GT(skipped_since_last(), 200u);
}

TEST_F(KeptSliceTest, WifiTailRunsDownInOneRun) {
  const hw::SessionId session = ctx().wifi_begin();
  sim_.run_for(sim::seconds(2));
  // Ending the session 100 ms into a window starts an 800 ms tail that
  // runs out mid-window with no call; the same run goes on past it.
  sim_.schedule(sim::millis(100), [this, session] { ctx().wifi_end(session); });
  static_cast<void>(skipped_since_last());
  sink_.slices.clear();
  sim_.run_for(sim::seconds(5));
  EXPECT_FALSE(server_.wifi().active());
  EXPECT_TRUE(server_.wifi().time_stable());
  const kernelsim::AppIdx idx = server_.ids().app_of(uid());
  // The tail draws at the ticks at 2.25, 2.5 and 2.75 s, and is gone by
  // the one at 3 s.
  ASSERT_EQ(sink_.slices.size(), 20u);
  for (std::size_t i = 0; i < sink_.slices.size(); ++i) {
    EXPECT_EQ(sink_.slices[i].wifi_mj(idx) > 0.0, i < 3) << "slice " << i;
  }
  EXPECT_FALSE(sink_.slices.back().active_at(idx));
  EXPECT_GT(skipped_since_last(), 10u);
}

TEST_F(KeptSliceTest, LateSpawnInOneRunIsCharged) {
  kernelsim::ProcessTable& processes = server_.processes();
  const kernelsim::Pid probe = processes.spawn(uid(), "com.app:probe");
  processes.kill(probe);
  const kernelsim::Pid future{probe.value + 1};
  server_.cpu().add_load(future, 0.5);
  sim_.run_for(sim::seconds(1));
  const kernelsim::AppIdx idx = server_.ids().app_of(uid());
  // The spawn, no scheduler call, lands as an event inside the run.
  kernelsim::Pid spawned;
  sim_.schedule(sim::millis(1100), [&] {
    spawned = processes.spawn(uid(), "com.app");
  });
  static_cast<void>(skipped_since_last());
  sink_.slices.clear();
  sim_.run_for(sim::seconds(4));
  ASSERT_EQ(spawned, future);
  ASSERT_EQ(sink_.slices.size(), 16u);
  for (std::size_t i = 0; i < sink_.slices.size(); ++i) {
    // Slices 0-3 end before the spawn; slice 4 holds it.
    EXPECT_EQ(sink_.slices[i].active_at(idx), i >= 4) << "slice " << i;
  }
  EXPECT_EQ(sink_.slices[6].cpu_mj(idx), sink_.slices.back().cpu_mj(idx));
  EXPECT_GT(sink_.slices.back().cpu_mj(idx), 0.0);
  EXPECT_GT(skipped_since_last(), 5u);
}

TEST_F(KeptSliceTest, BrightnessEventInOneRunRebuilds) {
  server_.user_set_screen_mode(framework::BrightnessMode::kManual);
  sim_.run_for(sim::seconds(1));
  sim_.schedule(sim::seconds(2) + sim::millis(60),
                [this] { server_.user_set_brightness(220); });
  static_cast<void>(skipped_since_last());
  sink_.slices.clear();
  sim_.run_for(sim::seconds(5));
  ASSERT_EQ(sink_.slices.size(), 20u);
  for (std::size_t i = 0; i < sink_.slices.size(); ++i) {
    // Slice 8 ends at 3.25 s, the first tick after the event.
    EXPECT_EQ(sink_.slices[i].brightness == 220, i >= 8) << "slice " << i;
  }
  EXPECT_GT(skipped_since_last(), 10u);
}

TEST_F(KeptSliceTest, KeptShortWindowIsNotCarriedIntoTheInPlaceFirings) {
  sim_.run_for(sim::seconds(1));
  // A flush 125 ms into a window builds a 125 ms slice; the loop's
  // firing at 1.25 s keeps it (same length, nothing changed). The
  // in-place firings after it close 250 ms windows and must rebuild.
  sim_.run_for(sim::millis(125));
  sampler_.flush();
  ASSERT_EQ(sink_.slices.back().length(), sim::millis(125));
  const std::size_t flushed = sink_.slices.size() - 1;
  static_cast<void>(skipped_since_last());
  sim_.run_for(sim::seconds(2));
  ASSERT_EQ(sink_.slices.size(), flushed + 9);
  EXPECT_EQ(sink_.slices[flushed + 1].length(), sim::millis(125));
  EXPECT_EQ(sink_.slices[flushed + 1].total_mj(),
            sink_.slices[flushed].total_mj());
  for (std::size_t i = flushed + 2; i < sink_.slices.size(); ++i) {
    EXPECT_EQ(sink_.slices[i].length(), sim::millis(250));
    EXPECT_EQ(sink_.slices[i].total_mj(), 2 * sink_.slices[flushed].total_mj())
        << "slice " << i;
  }
  EXPECT_GT(skipped_since_last(), 0u);
}

TEST_F(KeptSliceTest, DirectChangeBetweenRunsIsSeenByTheNextRunAndFlush) {
  // A change made outside any event, between two runs, where the last
  // ticks of the first run were in-place keeps that skipped the test.
  sim_.run_for(sim::seconds(3));
  ASSERT_GT(skipped_since_last(), 0u);
  server_.screen().set_brightness(17);
  EXPECT_FALSE(tick_kept());
  EXPECT_EQ(sink_.slices.back().brightness, 17);
  sim_.run_for(sim::seconds(2));
  ASSERT_GT(skipped_since_last(), 0u);

  // The same for flush(): two 50 ms flushes build and keep a slice, and
  // a third of the same length, after a direct change, must see it.
  sim_.run_for(sim::millis(50));
  sampler_.flush();
  sim_.run_for(sim::millis(50));
  const std::uint64_t reused = sampler_.gathers_reused();
  sampler_.flush();
  ASSERT_EQ(sampler_.gathers_reused(), reused + 1);
  sim_.run_for(sim::millis(50));
  server_.screen().set_brightness(201);
  sampler_.flush();
  EXPECT_EQ(sampler_.gathers_reused(), reused + 1);
  EXPECT_EQ(sink_.slices.back().brightness, 201);
  EXPECT_EQ(sink_.slices.back().length(), sim::millis(50));
}

}  // namespace
}  // namespace eandroid::energy
