// E-Android revised battery interface tests (paper §IV-C / Fig 8).
#include "core/battery_interface.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/e_android.h"
#include "framework/system_server.h"
#include "sim/simulator.h"
#include "tests/framework/helpers.h"

namespace eandroid::core {
namespace {

using framework::Intent;
using framework::testing::RecordingApp;
using framework::testing::simple_manifest;

/// Feeds one slice through a pipeline that has only `ea`'s engine
/// registered.
void feed(EAndroid& ea, const energy::EnergySlice& slice) {
  energy::MeteringPipeline pipeline;
  ea.attach_to(pipeline);
  pipeline.run(slice);
}

class InterfaceTest : public ::testing::Test {
 protected:
  InterfaceTest() : server_(sim_) {
    server_.install(simple_manifest("com.a"),
                    std::make_unique<RecordingApp>());
    server_.install(simple_manifest("com.b"),
                    std::make_unique<RecordingApp>());
    server_.boot();
    ea_ = std::make_unique<EAndroid>(server_);
  }

  kernelsim::Uid uid(const std::string& package) {
    return server_.packages().find(package)->uid;
  }
  framework::Context& ctx(const std::string& package) {
    server_.ensure_process(uid(package));
    return server_.context_of(uid(package));
  }

  energy::EnergySlice slice(double a_mj, double b_mj, double screen = 0.0) {
    energy::EnergySlice s(server_.ids());
    s.begin = sim_.now();
    s.end = sim_.now() + sim::millis(250);
    if (a_mj > 0) s.part(uid("com.a"), energy::HwPart::kCpu) = a_mj;
    if (b_mj > 0) s.part(uid("com.b"), energy::HwPart::kCpu) = b_mj;
    s.screen_mj = screen;
    s.screen_on = screen > 0;
    s.brightness = server_.screen().brightness();
    s.system_mj = 10.0;
    s.seal();
    return s;
  }

  sim::Simulator sim_;
  framework::SystemServer server_;
  std::unique_ptr<EAndroid> ea_;
};

TEST_F(InterfaceTest, RanksByTotalIncludingCollateral) {
  server_.user_launch("com.a");
  ctx("com.a").start_activity(Intent::explicit_for("com.b", "Main"));
  feed(*ea_, slice(10.0, 100.0));
  const EAView view = ea_->view();
  ASSERT_GE(view.rows.size(), 2u);
  // A's total (10 own + 100 collateral) beats B's 100.
  EXPECT_EQ(view.rows[0].label, "com.a");
  EXPECT_DOUBLE_EQ(view.rows[0].total_mj, 110.0);
  EXPECT_DOUBLE_EQ(view.rows[0].original_mj, 10.0);
  EXPECT_DOUBLE_EQ(view.rows[0].collateral_mj, 100.0);
}

TEST_F(InterfaceTest, InventoryListsContributors) {
  server_.user_launch("com.a");
  ctx("com.a").start_activity(Intent::explicit_for("com.b", "Main"));
  feed(*ea_, slice(10.0, 100.0));
  const EAView view = ea_->view();
  const EARow* row = view.row_of("com.a");
  ASSERT_NE(row, nullptr);
  ASSERT_EQ(row->inventory.size(), 1u);
  EXPECT_EQ(row->inventory[0].label, "com.b");
  EXPECT_DOUBLE_EQ(row->inventory[0].energy_mj, 100.0);
}

TEST_F(InterfaceTest, PercentAgainstTrueBatteryDrain) {
  server_.user_launch("com.a");
  ctx("com.a").start_activity(Intent::explicit_for("com.b", "Main"));
  feed(*ea_, slice(10.0, 100.0, 80.0));
  const EAView view = ea_->view();
  const double total = 10.0 + 100.0 + 80.0 + 10.0;
  EXPECT_NEAR(view.true_total_mj, total, 1e-9);
  EXPECT_NEAR(view.percent_of("com.a"), 100.0 * 110.0 / total, 1e-9);
}

TEST_F(InterfaceTest, NoCollateralMeansEmptyInventory) {
  feed(*ea_, slice(10.0, 20.0));
  const EAView view = ea_->view();
  const EARow* row = view.row_of("com.b");
  ASSERT_NE(row, nullptr);
  EXPECT_TRUE(row->inventory.empty());
  EXPECT_DOUBLE_EQ(row->collateral_mj, 0.0);
}

TEST_F(InterfaceTest, RenderContainsInventoryLines) {
  server_.user_launch("com.a");
  ctx("com.a").start_activity(Intent::explicit_for("com.b", "Main"));
  feed(*ea_, slice(10.0, 100.0));
  const std::string text = ea_->view().render("sample");
  EXPECT_NE(text.find("com.a"), std::string::npos);
  EXPECT_NE(text.find("+ from com.b"), std::string::npos);
  EXPECT_NE(text.find("battery drain"), std::string::npos);
}

TEST_F(InterfaceTest, MissingRowQueriesReturnZero) {
  const EAView view = ea_->view();
  EXPECT_EQ(view.row_of("com.none"), nullptr);
  EXPECT_DOUBLE_EQ(view.total_of("com.none"), 0.0);
  EXPECT_DOUBLE_EQ(view.percent_of("com.none"), 0.0);
}

TEST_F(InterfaceTest, RevisedPowerTutorBreakdownSplitsComponents) {
  server_.user_launch("com.a");
  ctx("com.a").start_activity(Intent::explicit_for("com.b", "Main"));
  energy::EnergySlice s = slice(10.0, 100.0);
  s.part(uid("com.a"), energy::HwPart::kCamera) = 33.0;
  s.add_routine_at(s.ids().app_of(uid("com.a")),
                   s.ids().routine_of("main"), 10.0);
  s.seal();
  feed(*ea_, s);
  const auto* direct = ea_->engine().direct_breakdown(uid("com.a"));
  ASSERT_NE(direct, nullptr);
  EXPECT_DOUBLE_EQ(direct->cpu_mj, 10.0);
  EXPECT_DOUBLE_EQ(direct->camera_mj, 33.0);
  EXPECT_DOUBLE_EQ(ea_->engine().direct_routine_mj(uid("com.a"), "main"),
                   10.0);

  const std::string text =
      ea_->battery_interface().render_app_breakdown(uid("com.a"));
  EXPECT_NE(text.find("revised PowerTutor"), std::string::npos);
  EXPECT_NE(text.find("CPU"), std::string::npos);
  EXPECT_NE(text.find("Camera"), std::string::npos);
  EXPECT_NE(text.find("collateral from com.b"), std::string::npos);
  EXPECT_NE(text.find("TOTAL"), std::string::npos);
}

TEST_F(InterfaceTest, BreakdownForUnknownAppIsMinimal) {
  const std::string text =
      ea_->battery_interface().render_app_breakdown(kernelsim::Uid{4242});
  EXPECT_NE(text.find("own total"), std::string::npos);
  EXPECT_NE(text.find("0.0"), std::string::npos);
}

TEST_F(InterfaceTest, FrameworkOnlyModeTracksWithoutAccounting) {
  EAndroid framework_only(server_, Mode::kFrameworkOnly);
  server_.user_launch("com.a");
  ctx("com.a").start_activity(Intent::explicit_for("com.b", "Main"));
  // Windows are tracked...
  EXPECT_EQ(framework_only.tracker().open_count(), 1u);
  // ...but slices are dropped.
  feed(framework_only, slice(10.0, 100.0));
  EXPECT_DOUBLE_EQ(framework_only.engine().true_total_mj(), 0.0);
}

}  // namespace
}  // namespace eandroid::core
