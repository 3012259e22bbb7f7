#include <gtest/gtest.h>

#include "apps/demo_app.h"
#include "apps/testbed.h"
#include "framework/broadcast_manager.h"
#include "hw/battery.h"

namespace eandroid::hw {
namespace {

TEST(BatteryChargingTest, ChargeRefillsAndClamps) {
  Battery battery(1.0);  // 3600 mJ
  battery.drain(1800.0, sim::TimePoint());
  EXPECT_EQ(battery.percent(), 50);
  battery.charge(900.0, sim::TimePoint(1));
  EXPECT_EQ(battery.percent(), 75);
  battery.charge(99999.0, sim::TimePoint(2));
  EXPECT_TRUE(battery.full());
  EXPECT_EQ(battery.percent(), 100);
}

TEST(BatteryChargingTest, HistoryRecordsRises) {
  Battery battery(1.0);
  battery.drain(360.0, sim::TimePoint());   // -> 90%
  const std::size_t after_drain = battery.history().size();
  battery.charge(72.0, sim::TimePoint(5));  // -> 92%
  ASSERT_EQ(battery.history().size(), after_drain + 2);
  EXPECT_EQ(battery.history().back().percent, 92);
}

TEST(BatteryChargingTest, ChargingFlagAndRate) {
  Battery battery(1.0);
  EXPECT_FALSE(battery.charging());
  battery.set_charging(true, 4200.0);
  EXPECT_TRUE(battery.charging());
  EXPECT_DOUBLE_EQ(battery.charge_rate_mw(), 4200.0);
  battery.set_charging(false);
  EXPECT_DOUBLE_EQ(battery.charge_rate_mw(), 0.0);
}

TEST(BatteryChargingTest, ChargeWhenFullIsNoop) {
  Battery battery(1.0);
  battery.charge(100.0, sim::TimePoint());
  EXPECT_EQ(battery.percent(), 100);
  EXPECT_EQ(battery.history().size(), 1u);
}

TEST(ChargerIntegrationTest, PluggedDeviceGainsCharge) {
  apps::Testbed bed;
  bed.start();
  bed.run_for(sim::minutes(5));  // drain a little
  const double before = bed.server().battery().remaining_mj();
  bed.server().plug_charger(5000.0);
  bed.run_for(sim::minutes(5));
  EXPECT_GT(bed.server().battery().remaining_mj(), before);
  bed.server().unplug_charger();
  const double at_unplug = bed.server().battery().remaining_mj();
  bed.run_for(sim::minutes(1));
  EXPECT_LT(bed.server().battery().remaining_mj(), at_unplug);
}

TEST(ChargerIntegrationTest, FullPhoneOnTheChargerKeepsItsHistoryBounded) {
  // Each tick's consumption and the charger's back-fill are one update:
  // a phone held at full neither drops to 99% nor records the round
  // trip. (Applied as two updates, a simulated day appended 691,200
  // points.)
  apps::Testbed bed;
  bed.install<apps::DemoApp>(apps::message_spec());
  bed.start();
  bed.server().plug_charger(5000.0);
  bed.server().user_launch("com.example.message");
  bed.run_for(sim::hours(24));
  const Battery& battery = bed.server().battery();
  EXPECT_TRUE(battery.full());
  EXPECT_EQ(battery.percent(), 100);
  EXPECT_EQ(battery.history().size(), 1u);
  EXPECT_EQ(bed.sampler().slices_emitted(), 24u * 3600 * 4);
  EXPECT_GT(battery.consumed_total_mj(), 0.0);
}

TEST(ChargerIntegrationTest, PowerConnectedBroadcastDelivered) {
  apps::Testbed bed;
  apps::DemoAppSpec spec = apps::message_spec();
  spec.package = "com.charge.listener";
  bed.install<apps::DemoApp>(spec);
  bed.start();
  bed.context_of("com.charge.listener")
      .register_receiver(framework::kActionPowerConnected);
  const std::uint64_t before = bed.server().broadcasts().deliveries();
  bed.server().plug_charger();
  EXPECT_EQ(bed.server().broadcasts().deliveries(), before + 1);
}

TEST(ChargerIntegrationTest, ProfilersKeepConservingWhileCharging) {
  // Conservation is stated over consumption, not net battery flow: the
  // profilers' totals equal what the device consumed even while the
  // charger back-fills.
  apps::Testbed bed;
  apps::DemoAppSpec spec = apps::message_spec();
  spec.foreground_cpu = 0.3;
  bed.install<apps::DemoApp>(spec);
  bed.start();
  bed.server().plug_charger(5000.0);
  bed.server().user_launch("com.example.message");
  bed.run_for(sim::minutes(2));
  EXPECT_NEAR(bed.battery_stats().total_mj(),
              bed.eandroid()->engine().true_total_mj(), 1e-3);
  // The battery itself went UP despite the consumption.
  EXPECT_TRUE(bed.server().battery().full());
}

}  // namespace
}  // namespace eandroid::hw
