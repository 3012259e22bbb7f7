// Tests for the two baseline profilers: Android BatteryStats (screen as
// its own row) and PowerTutor (screen billed to the foreground app) —
// including the blindness to collateral effects the paper exploits.
#include <gtest/gtest.h>

#include "energy/battery_stats.h"
#include "energy/pipeline.h"
#include "energy/power_tutor.h"

#include "framework/package_manager.h"
#include "tests/framework/helpers.h"

namespace eandroid::energy {
namespace {

using framework::testing::simple_manifest;

class ProfilersTest : public ::testing::Test {
 protected:
  ProfilersTest() : stats_(packages_), tutor_(packages_) {
    uid_a_ = packages_.install(simple_manifest("com.a"), nullptr);
    uid_b_ = packages_.install(simple_manifest("com.b"), nullptr);
    stats_pipeline_.set_battery_stats(&stats_);
    tutor_pipeline_.set_power_tutor(&tutor_);
  }

  // Each profiler is fed through a pipeline that has only it registered.
  void feed_stats(const EnergySlice& slice) { stats_pipeline_.run(slice); }
  void feed_tutor(const EnergySlice& slice) { tutor_pipeline_.run(slice); }

  EnergySlice make_slice(double a_cpu, double b_cpu, double screen,
                         kernelsim::Uid foreground) {
    // All slices share the fixture's table: the dense sinks key their
    // accumulators on stable app indices across slices.
    EnergySlice slice(ids_);
    slice.begin = sim::TimePoint(0);
    slice.end = sim::TimePoint(250'000);
    if (a_cpu > 0) slice.part(uid_a_, HwPart::kCpu) = a_cpu;
    if (b_cpu > 0) slice.part(uid_b_, HwPart::kCpu) = b_cpu;
    slice.screen_mj = screen;
    slice.screen_on = screen > 0;
    slice.foreground = foreground;
    slice.system_mj = 10.0;
    slice.seal();
    return slice;
  }

  kernelsim::IdTable ids_;
  framework::PackageManager packages_;
  BatteryStats stats_;
  PowerTutor tutor_;
  MeteringPipeline stats_pipeline_;
  MeteringPipeline tutor_pipeline_;
  kernelsim::Uid uid_a_, uid_b_;
};

TEST_F(ProfilersTest, BatteryStatsAccumulatesPerApp) {
  feed_stats(make_slice(100, 50, 200, uid_a_));
  feed_stats(make_slice(100, 0, 200, uid_a_));
  EXPECT_DOUBLE_EQ(stats_.app_energy_mj(uid_a_), 200.0);
  EXPECT_DOUBLE_EQ(stats_.app_energy_mj(uid_b_), 50.0);
}

TEST_F(ProfilersTest, BatteryStatsScreenIsSeparateRow) {
  feed_stats(make_slice(100, 0, 200, uid_a_));
  EXPECT_DOUBLE_EQ(stats_.screen_energy_mj(), 200.0);
  const BatteryView view = stats_.view();
  EXPECT_DOUBLE_EQ(view.energy_of("Screen"), 200.0);
  EXPECT_DOUBLE_EQ(view.energy_of("com.a"), 100.0);  // no screen inside
}

TEST_F(ProfilersTest, BatteryStatsTotalsConserve) {
  feed_stats(make_slice(100, 50, 200, uid_a_));
  EXPECT_DOUBLE_EQ(stats_.total_mj(), 100 + 50 + 200 + 10);
}

TEST_F(ProfilersTest, ViewSortedByEnergyWithPercents) {
  feed_stats(make_slice(100, 300, 50, uid_a_));
  const BatteryView view = stats_.view();
  ASSERT_GE(view.rows.size(), 2u);
  EXPECT_EQ(view.rows[0].label, "com.b");
  double percent_sum = 0.0;
  for (const auto& row : view.rows) percent_sum += row.percent;
  EXPECT_NEAR(percent_sum, 100.0, 1e-9);
}

TEST_F(ProfilersTest, PowerTutorChargesScreenToForeground) {
  feed_tutor(make_slice(100, 50, 200, uid_a_));
  EXPECT_DOUBLE_EQ(tutor_.app_energy_mj(uid_a_), 300.0);
  EXPECT_DOUBLE_EQ(tutor_.component_energy_mj(uid_a_, HwPart::kScreen), 200.0);
  EXPECT_DOUBLE_EQ(tutor_.component_energy_mj(uid_a_, HwPart::kCpu), 100.0);
  EXPECT_DOUBLE_EQ(tutor_.app_energy_mj(uid_b_), 50.0);
}

TEST_F(ProfilersTest, PowerTutorScreenFollowsForegroundChanges) {
  feed_tutor(make_slice(0, 0, 100, uid_a_));
  feed_tutor(make_slice(0, 0, 100, uid_b_));
  EXPECT_DOUBLE_EQ(tutor_.component_energy_mj(uid_a_, HwPart::kScreen), 100.0);
  EXPECT_DOUBLE_EQ(tutor_.component_energy_mj(uid_b_, HwPart::kScreen), 100.0);
}

TEST_F(ProfilersTest, PowerTutorUnattributedScreenWithoutForeground) {
  feed_tutor(make_slice(0, 0, 100, kernelsim::Uid{}));
  EXPECT_DOUBLE_EQ(tutor_.total_mj(), 110.0);
  const BatteryView view = tutor_.view();
  EXPECT_DOUBLE_EQ(view.energy_of("Screen"), 100.0);
}

TEST_F(ProfilersTest, PowerTutorComponentBreakdown) {
  EnergySlice slice = make_slice(0, 0, 0, uid_a_);
  slice.part(uid_a_, HwPart::kCamera) = 30;
  slice.part(uid_a_, HwPart::kGps) = 20;
  slice.part(uid_a_, HwPart::kWifi) = 10;
  slice.part(uid_a_, HwPart::kAudio) = 5;
  slice.seal();
  feed_tutor(slice);
  EXPECT_DOUBLE_EQ(tutor_.component_energy_mj(uid_a_, HwPart::kCamera), 30.0);
  EXPECT_DOUBLE_EQ(tutor_.component_energy_mj(uid_a_, HwPart::kGps), 20.0);
  EXPECT_DOUBLE_EQ(tutor_.component_energy_mj(uid_a_, HwPart::kWifi), 10.0);
  EXPECT_DOUBLE_EQ(tutor_.component_energy_mj(uid_a_, HwPart::kAudio), 5.0);
}

TEST_F(ProfilersTest, ResetClearsBoth) {
  feed_stats(make_slice(100, 50, 200, uid_a_));
  feed_tutor(make_slice(100, 50, 200, uid_a_));
  stats_.reset();
  tutor_.reset();
  EXPECT_DOUBLE_EQ(stats_.total_mj(), 0.0);
  EXPECT_DOUBLE_EQ(tutor_.total_mj(), 0.0);
}

TEST_F(ProfilersTest, BothProfilersAgreeOnGrandTotal) {
  const EnergySlice slice = make_slice(123, 45, 67, uid_b_);
  feed_stats(slice);
  feed_tutor(slice);
  EXPECT_DOUBLE_EQ(stats_.total_mj(), tutor_.total_mj());
}

TEST_F(ProfilersTest, ViewRendersAllRows) {
  feed_stats(make_slice(100, 50, 200, uid_a_));
  const std::string text = stats_.view().render("test");
  EXPECT_NE(text.find("com.a"), std::string::npos);
  EXPECT_NE(text.find("com.b"), std::string::npos);
  EXPECT_NE(text.find("Screen"), std::string::npos);
  EXPECT_NE(text.find("Android OS"), std::string::npos);
}

}  // namespace
}  // namespace eandroid::energy
