// InvariantChecker: a healthy device passes every check; fabricated
// inconsistencies are reported with enough context to debug from.
#include <gtest/gtest.h>

#include <string>

#include "apps/demo_app.h"
#include "apps/testbed.h"
#include "core/invariants.h"

namespace eandroid::core {
namespace {

apps::Testbed& attach_all(apps::Testbed& bed, InvariantChecker& checker) {
  checker.attach(bed.eandroid());
  checker.attach(&bed.battery_stats());
  checker.attach(&bed.power_tutor());
  return bed;
}

TEST(InvariantsTest, CleanTestbedPasses) {
  apps::Testbed bed;
  bed.install<apps::DemoApp>(apps::message_spec());
  bed.install<apps::DemoApp>(apps::camera_spec());
  bed.start();
  bed.server().user_launch("com.example.message");
  bed.run_for(sim::seconds(5));
  bed.server().user_launch("com.example.camera");
  bed.run_for(sim::seconds(5));
  bed.server().kill_app(bed.uid_of("com.example.message"));
  bed.run_for(sim::seconds(2));

  InvariantChecker checker(bed.server());
  attach_all(bed, checker);
  const InvariantReport report = checker.check();
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.to_string(), "all invariants hold");
}

TEST(InvariantsTest, DetectsUnmeteredBatteryDrain) {
  apps::Testbed bed;
  bed.install<apps::DemoApp>(apps::message_spec());
  bed.start();
  bed.run_for(sim::seconds(2));

  // Energy leaves the battery behind the sampler's back: every profiler's
  // total now disagrees with the consumption ledger.
  bed.server().battery().drain(500.0, bed.sim().now());

  InvariantChecker checker(bed.server());
  attach_all(bed, checker);
  const InvariantReport report = checker.check();
  ASSERT_FALSE(report.ok());
  EXPECT_GE(report.violations.size(), 3u);  // all three profilers disagree
  EXPECT_NE(report.to_string().find("!= battery consumed"),
            std::string::npos);
}

TEST(InvariantsTest, BatteryDepletionFaultKeepsConservation) {
  apps::Testbed bed;
  bed.install<apps::DemoApp>(apps::message_spec());
  bed.start();
  bed.server().user_launch("com.example.message");
  bed.run_for(sim::seconds(5));

  // The battery_exhaust fault op: the cell collapses, but no energy was
  // consumed, so the conservation invariant must keep holding.
  bed.server().battery().deplete_to(0.0, bed.sim().now());
  bed.run_for(sim::seconds(2));

  InvariantChecker checker(bed.server());
  attach_all(bed, checker);
  const InvariantReport report = checker.check();
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_NEAR(bed.server().battery().remaining_mj(), 0.0, 1e-9);
}

TEST(InvariantsTest, TighterToleranceIsConfigurable) {
  apps::Testbed bed;
  bed.install<apps::DemoApp>(apps::message_spec());
  bed.start();
  bed.run_for(sim::seconds(1));
  bed.server().battery().drain(0.5, bed.sim().now());  // half a millijoule

  // Unmetered, but inside a configured 1 mJ tolerance...
  InvariantChecker lax(bed.server(),
                       InvariantChecker::Config{.energy_tolerance_mj = 1.0});
  attach_all(bed, lax);
  EXPECT_TRUE(lax.check().ok());

  // ...yet well outside the default 1e-3 mJ one.
  InvariantChecker strict(bed.server());
  attach_all(bed, strict);
  EXPECT_FALSE(strict.check().ok());
}

}  // namespace
}  // namespace eandroid::core
