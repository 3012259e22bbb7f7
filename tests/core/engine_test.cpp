// EAndroidEngine tests: Algorithm 1, including multi-collateral and hybrid
// chain scenarios (paper Fig 6 / Fig 7).
#include "core/engine.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/e_android.h"
#include "core/window_tracker.h"
#include "framework/system_server.h"
#include "sim/simulator.h"
#include "tests/framework/helpers.h"

namespace eandroid::core {
namespace {

using framework::BrightnessMode;
using framework::Intent;
using framework::Manifest;
using framework::Permission;
using framework::ServiceDecl;
using framework::WakelockType;
using framework::testing::RecordingApp;
using framework::testing::simple_manifest;

/// Feeds one slice through a pipeline that has only `engine` registered.
void feed(EAndroidEngine& engine, const energy::EnergySlice& slice) {
  energy::MeteringPipeline pipeline;
  engine.attach_to(pipeline);
  pipeline.run(slice);
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : server_(sim_) {
    install("com.a");
    install("com.b");
    install("com.c");
    Manifest svc = simple_manifest("com.svc");
    svc.services.push_back(ServiceDecl{"Work", /*exported=*/true, {}});
    server_.install(std::move(svc), std::make_unique<RecordingApp>());
    Manifest power = simple_manifest("com.power");
    power.permissions = {Permission::kWakeLock, Permission::kWriteSettings};
    server_.install(std::move(power), std::make_unique<RecordingApp>());
    server_.boot();
    tracker_ = std::make_unique<WindowTracker>(server_);
    engine_ = std::make_unique<EAndroidEngine>(server_, *tracker_);
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

  /// Minimal synthetic slice: per-app cpu energy in mJ.
  energy::EnergySlice slice_with(
      std::initializer_list<std::pair<std::string, double>> cpu,
      double screen_mj = 0.0) {
    // Shares the server's id table, as the engine requires.
    energy::EnergySlice slice(server_.ids());
    slice.begin = sim_.now();
    slice.end = sim_.now() + sim::millis(250);
    for (const auto& [package, mj] : cpu) {
      slice.part(uid(package), energy::HwPart::kCpu) = mj;
    }
    slice.screen_mj = screen_mj;
    slice.screen_on = screen_mj > 0.0;
    slice.brightness = server_.screen().brightness();
    slice.foreground = server_.activities().foreground_uid();
    slice.screen_forced_by_wakelock =
        server_.power().screen_forced_by_wakelock();
    slice.system_mj = 5.0;
    slice.seal();
    return slice;
  }

  sim::Simulator sim_;
  framework::SystemServer server_;
  std::unique_ptr<WindowTracker> tracker_;
  std::unique_ptr<EAndroidEngine> engine_;
};

TEST_F(EngineTest, NoWindowsMeansNoCollateral) {
  feed(*engine_, slice_with({{"com.a", 100.0}}, 50.0));
  EXPECT_DOUBLE_EQ(engine_->direct_mj(uid("com.a")), 100.0);
  EXPECT_DOUBLE_EQ(engine_->collateral_mj(uid("com.a")), 0.0);
  EXPECT_DOUBLE_EQ(engine_->screen_row_mj(), 50.0);
  EXPECT_DOUBLE_EQ(engine_->system_row_mj(), 5.0);
}

TEST_F(EngineTest, OpenWindowChargesDrivenEnergyToDriver) {
  server_.user_launch("com.a");
  ctx("com.a").start_activity(Intent::explicit_for("com.b", "Main"));
  feed(*engine_, slice_with({{"com.a", 10.0}, {"com.b", 100.0}}));
  EXPECT_DOUBLE_EQ(engine_->collateral_mj(uid("com.a")), 100.0);
  EXPECT_DOUBLE_EQ(
      engine_->collateral_from(uid("com.a"), Entity::app(uid("com.b"))),
      100.0);
  // The driven app's own ("original") account is untouched.
  EXPECT_DOUBLE_EQ(engine_->direct_mj(uid("com.b")), 100.0);
}

TEST_F(EngineTest, WindowsMovingBetweenKeptSlicesAreFolded) {
  // One slice handed over as kept on every run: the pipeline replays
  // the recorded fold until the engine reports a window change, then
  // folds in full against the new window set.
  const energy::EnergySlice slice =
      slice_with({{"com.a", 10.0}, {"com.b", 100.0}});
  energy::MeteringPipeline pipeline;
  engine_->attach_to(pipeline);
  for (int i = 0; i < 4; ++i) pipeline.run(slice, /*slice_kept=*/i > 0);
  ASSERT_EQ(pipeline.folds_replayed(), 1u);
  EXPECT_DOUBLE_EQ(engine_->collateral_mj(uid("com.a")), 0.0);

  server_.user_launch("com.a");
  ctx("com.a").start_activity(Intent::explicit_for("com.b", "Main"));
  pipeline.run(slice, true);
  EXPECT_EQ(pipeline.folds_replayed(), 1u);
  EXPECT_DOUBLE_EQ(engine_->collateral_mj(uid("com.a")), 100.0);
  for (int i = 0; i < 3; ++i) pipeline.run(slice, true);
  EXPECT_EQ(pipeline.folds_replayed(), 2u);
  EXPECT_DOUBLE_EQ(engine_->collateral_mj(uid("com.a")), 400.0);

  server_.user_launch("com.b");  // closes the window
  pipeline.run(slice, true);
  EXPECT_EQ(pipeline.folds_replayed(), 2u);
  for (int i = 0; i < 3; ++i) pipeline.run(slice, true);
  EXPECT_EQ(pipeline.folds_replayed(), 3u);
  EXPECT_DOUBLE_EQ(engine_->collateral_mj(uid("com.a")), 400.0);
  EXPECT_DOUBLE_EQ(engine_->direct_mj(uid("com.b")), 1200.0);
}

TEST_F(EngineTest, ClosedWindowStopsCharging) {
  server_.user_launch("com.a");
  ctx("com.a").start_activity(Intent::explicit_for("com.b", "Main"));
  feed(*engine_, slice_with({{"com.b", 100.0}}));
  server_.user_launch("com.b");  // closes the window
  feed(*engine_, slice_with({{"com.b", 70.0}}));
  // Already-charged energy persists, nothing new accrues.
  EXPECT_DOUBLE_EQ(engine_->collateral_mj(uid("com.a")), 100.0);
}

TEST_F(EngineTest, ChainChargesTransitively) {
  // Fig 7: A binds B's-analog, B starts C.
  server_.user_launch("com.a");
  ctx("com.a").start_activity(Intent::explicit_for("com.b", "Main"));
  ctx("com.b").start_activity(Intent::explicit_for("com.c", "Main"));
  feed(*engine_, slice_with({{"com.b", 40.0}, {"com.c", 60.0}}));
  EXPECT_DOUBLE_EQ(engine_->collateral_mj(uid("com.a")), 100.0);
  EXPECT_DOUBLE_EQ(
      engine_->collateral_from(uid("com.a"), Entity::app(uid("com.c"))), 60.0);
  EXPECT_DOUBLE_EQ(engine_->collateral_mj(uid("com.b")), 60.0);
}

TEST_F(EngineTest, BrokenChainLinkStopsDownstreamCharging) {
  server_.user_launch("com.a");
  ctx("com.a").start_activity(Intent::explicit_for("com.b", "Main"));
  ctx("com.b").start_activity(Intent::explicit_for("com.c", "Main"));
  server_.user_launch("com.b");  // ends A->B
  feed(*engine_, slice_with({{"com.c", 50.0}}));
  // B->C is still open; A->B is not, so A no longer reaches C.
  EXPECT_DOUBLE_EQ(engine_->collateral_mj(uid("com.a")), 0.0);
  EXPECT_DOUBLE_EQ(engine_->collateral_mj(uid("com.b")), 50.0);
}

TEST_F(EngineTest, MultiCollateralDoesNotDoubleCharge) {
  // Fig 6: A both binds B's service and starts B's activity.
  server_.user_launch("com.a");
  ctx("com.a").bind_service(Intent::explicit_for("com.svc", "Work"));
  ctx("com.a").start_activity(Intent::explicit_for("com.svc", "Main"));
  feed(*engine_, slice_with({{"com.svc", 100.0}}));
  // Two windows, one driven app: charged once.
  EXPECT_DOUBLE_EQ(engine_->collateral_mj(uid("com.a")), 100.0);
}

TEST_F(EngineTest, CycleBetweenAppsDoesNotLoopForever) {
  server_.user_launch("com.a");
  ctx("com.a").start_activity(Intent::explicit_for("com.b", "Main"));
  ctx("com.b").start_activity(Intent::explicit_for("com.a", "Main"));
  feed(*engine_, slice_with({{"com.a", 10.0}, {"com.b", 20.0}}));
  // Each charges the other, neither charges itself.
  EXPECT_DOUBLE_EQ(engine_->collateral_mj(uid("com.a")), 20.0);
  EXPECT_DOUBLE_EQ(engine_->collateral_mj(uid("com.b")), 10.0);
}

TEST_F(EngineTest, WakelockForcedScreenChargedToHolder) {
  ctx("com.power").acquire_wakelock(WakelockType::kScreenBright, "t");
  sim_.run_for(sim::minutes(1));  // past the user-activity timeout
  ASSERT_TRUE(server_.power().screen_forced_by_wakelock());
  feed(*engine_, slice_with({}, 200.0));
  EXPECT_DOUBLE_EQ(
      engine_->collateral_from(uid("com.power"), Entity::screen()), 200.0);
  // The claimed energy leaves the neutral row but stays on the books:
  // screen_row + attributed_screen is still all screen energy.
  EXPECT_DOUBLE_EQ(engine_->screen_row_mj(), 0.0);
  EXPECT_DOUBLE_EQ(engine_->attributed_screen_mj(), 200.0);
}

TEST_F(EngineTest, NormalScreenStaysOnNeutralRow) {
  feed(*engine_, slice_with({}, 200.0));
  EXPECT_DOUBLE_EQ(engine_->screen_row_mj(), 200.0);
  EXPECT_DOUBLE_EQ(engine_->attributed_screen_mj(), 0.0);
}

TEST_F(EngineTest, BrightnessDeltaChargedToAttacker) {
  server_.user_set_screen_mode(BrightnessMode::kManual);
  server_.user_set_brightness(100);
  ctx("com.power").set_brightness(200);
  // Screen power at 200: base + 200*c; baseline at 100: base + 100*c.
  const auto& p = server_.params();
  const double current_mw = p.screen_base_mw + 200 * p.screen_per_level_mw;
  const double delta_mw = 100 * p.screen_per_level_mw;
  feed(*engine_, slice_with({}, 300.0));
  const double expected = 300.0 * delta_mw / current_mw;
  EXPECT_NEAR(engine_->collateral_from(uid("com.power"), Entity::screen()),
              expected, 1e-9);
  EXPECT_NEAR(engine_->screen_row_mj(), 300.0 - expected, 1e-9);
  EXPECT_NEAR(engine_->attributed_screen_mj(), expected, 1e-9);
}

TEST_F(EngineTest, ScreenCollateralFlowsUpChains) {
  // A starts B; B (has permissions? use com.power as the driven app):
  // A starts com.power's activity; com.power escalates brightness.
  server_.user_launch("com.a");
  ctx("com.a").start_activity(Intent::explicit_for("com.power", "Main"));
  server_.user_set_screen_mode(BrightnessMode::kManual);
  // NOTE: the user brightness change above closes screen windows but not
  // the activity window A->power.
  ctx("com.power").set_brightness(255);
  feed(*engine_, slice_with({{"com.power", 10.0}}, 100.0));
  const double power_screen =
      engine_->collateral_from(uid("com.power"), Entity::screen());
  EXPECT_GT(power_screen, 0.0);
  EXPECT_DOUBLE_EQ(
      engine_->collateral_from(uid("com.a"), Entity::screen()), power_screen);
  EXPECT_DOUBLE_EQ(
      engine_->collateral_from(uid("com.a"), Entity::app(uid("com.power"))),
      10.0);
}

TEST_F(EngineTest, AccountingDisabledDropsEverything) {
  // Accounting off is the framework-only mode: its engine is never
  // registered on the pipeline, so slices are dropped on the floor.
  EAndroid disabled(server_, Mode::kFrameworkOnly);
  server_.user_launch("com.a");
  ctx("com.a").start_activity(Intent::explicit_for("com.b", "Main"));
  energy::MeteringPipeline pipeline;
  disabled.attach_to(pipeline);
  pipeline.run(slice_with({{"com.b", 100.0}}));
  EXPECT_DOUBLE_EQ(disabled.engine().true_total_mj(), 0.0);
  EXPECT_DOUBLE_EQ(disabled.engine().collateral_mj(uid("com.a")), 0.0);
}

TEST_F(EngineTest, ChainAblationChargesOnlyDirectNeighbours) {
  EAndroidEngine flat(server_, *tracker_,
                      EngineConfig{.chain_propagation = false});
  server_.user_launch("com.a");
  ctx("com.a").start_activity(Intent::explicit_for("com.b", "Main"));
  ctx("com.b").start_activity(Intent::explicit_for("com.c", "Main"));
  feed(flat, slice_with({{"com.b", 40.0}, {"com.c", 60.0}}));
  EXPECT_DOUBLE_EQ(flat.collateral_mj(uid("com.a")), 40.0);  // B only
  EXPECT_DOUBLE_EQ(flat.collateral_mj(uid("com.b")), 60.0);
}

TEST_F(EngineTest, TrueTotalAccumulates) {
  feed(*engine_, slice_with({{"com.a", 100.0}}, 50.0));
  feed(*engine_, slice_with({{"com.a", 100.0}}, 50.0));
  EXPECT_DOUBLE_EQ(engine_->true_total_mj(), 2 * (100.0 + 50.0 + 5.0));
}

TEST_F(EngineTest, ResetClearsState) {
  feed(*engine_, slice_with({{"com.a", 100.0}}, 50.0));
  engine_->reset();
  EXPECT_DOUBLE_EQ(engine_->true_total_mj(), 0.0);
  EXPECT_DOUBLE_EQ(engine_->direct_mj(uid("com.a")), 0.0);
  EXPECT_TRUE(engine_->known_uids().empty());
}

TEST_F(EngineTest, KnownUidsCoversDirectAndCollateral) {
  server_.user_launch("com.a");
  ctx("com.a").start_activity(Intent::explicit_for("com.b", "Main"));
  feed(*engine_, slice_with({{"com.b", 100.0}}));
  const auto uids = engine_->known_uids();
  bool has_a = false, has_b = false;
  for (kernelsim::Uid u : uids) {
    if (u == uid("com.a")) has_a = true;
    if (u == uid("com.b")) has_b = true;
  }
  EXPECT_TRUE(has_a);  // appears via its collateral map
  EXPECT_TRUE(has_b);  // appears via direct energy
}

}  // namespace
}  // namespace eandroid::core
