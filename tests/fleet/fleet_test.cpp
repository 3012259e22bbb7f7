// The fleet layer's contracts:
//   * DeviceContext is the old Testbed, bit for bit — extracting it
//     changed nothing observable on the one-phone path;
//   * immutable configuration is genuinely shared: one PowerParams /
//     Manifest object per fleet, aliased by every device;
//   * per-device results are a pure function of the spec — bitwise
//     identical across worker counts, repeated runs, and with fault-heavy
//     scenario programs armed on a subset of devices;
//   * the PushBroker's campaigns deliver deterministically and their
//     energy lands on the sender's account (collateral attribution).
//
// This suite runs under the tsan label: a ThreadSanitizer build executes
// it with multi-worker fleets to prove the per-device task discipline is
// the only synchronization the devices need.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/demo_app.h"
#include "apps/malware.h"
#include "apps/testbed.h"
#include "fleet/aggregate.h"
#include "fleet/fleet.h"
#include "fuzz/executor.h"
#include "fuzz/generator.h"

namespace eandroid::fleet {
namespace {

using apps::DemoApp;
using apps::DemoAppSpec;

/// The fleet cast: a push-flooder "weather" app and a sync-client victim
/// on every device, plus a small steady load app.
std::shared_ptr<const InstallPlan> campaign_plan() {
  auto plan = std::make_shared<InstallPlan>();
  DemoAppSpec sender;
  sender.package = "com.fleet.weather";
  sender.foreground_cpu = 0.02;
  plan->add_app<DemoApp>(sender);

  DemoAppSpec victim;
  victim.package = "com.fleet.syncclient";
  victim.push_endpoint = true;
  plan->add_app<DemoApp>(victim);

  DemoAppSpec load;
  load.package = "com.fleet.load";
  load.background_cpu = 0.03;
  plan->add_app<DemoApp>(load);
  return plan;
}

PushCampaign flood_campaign(int pushes_per_device) {
  PushCampaign campaign;
  campaign.sender_package = "com.fleet.weather";
  campaign.target_package = "com.fleet.syncclient";
  campaign.start = sim::TimePoint{} + sim::seconds(2);
  campaign.period = sim::millis(750);
  campaign.pushes_per_device = pushes_per_device;
  campaign.device_stagger = sim::millis(13);
  return campaign;
}

FleetOptions small_fleet_options(int devices, unsigned workers) {
  FleetOptions options;
  options.device_count = devices;
  options.workers = workers;
  options.install_plan = campaign_plan();
  options.epoch = sim::seconds(2);
  return options;
}

std::vector<std::string> run_small_campaign(int devices, unsigned workers,
                                            sim::Duration run_time) {
  Fleet fleet(small_fleet_options(devices, workers));
  fleet.broker().add_campaign(flood_campaign(/*pushes_per_device=*/8));
  fleet.start();
  fleet.run_for(run_time);
  fleet.finish();
  return fleet.energy_digests();
}

TEST(DeviceContextTest, IsTheTestbedBitForBit) {
  // The same scripted session on a Testbed (wrapper) and a DeviceContext
  // built from the translated spec must digest identically.
  const auto drive = [](DeviceContext& bed) {
    DemoAppSpec victim = apps::victim_spec();
    bed.install<DemoApp>(victim);
    bed.start();
    bed.server().user_launch(victim.package);
    bed.sim().run_for(sim::seconds(10));
    bed.server().simulate_incoming_call(sim::seconds(5));
    bed.sim().run_for(sim::seconds(10));
    bed.server().user_press_home();
    bed.run_for(sim::seconds(30));
    return bed.energy_digest();
  };
  apps::TestbedOptions options;
  options.seed = 7;
  apps::Testbed testbed(options);
  DeviceContext device(apps::Testbed::spec_from(options));
  EXPECT_EQ(drive(testbed), drive(device));
}

TEST(FleetTest, SharedConfigIsOneObjectPerFleet) {
  Fleet fleet(small_fleet_options(/*devices=*/4, /*workers=*/2));
  fleet.start();
  const hw::PowerParams* params =
      fleet.device(0).server().params_ptr().get();
  const framework::PackageRecord* first =
      fleet.device(0).server().packages().find("com.fleet.syncclient");
  ASSERT_NE(first, nullptr);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    EXPECT_EQ(fleet.device(i).server().params_ptr().get(), params)
        << "device " << i << " copied PowerParams";
    const framework::PackageRecord* pkg =
        fleet.device(i).server().packages().find("com.fleet.syncclient");
    ASSERT_NE(pkg, nullptr);
    EXPECT_EQ(pkg->manifest.get(), first->manifest.get())
        << "device " << i << " copied the manifest";
    // The stock default engine config is shared too.
    EXPECT_EQ(fleet.device(i).spec().engine_config.get(),
              shared_default_engine_config().get())
        << "device " << i << " copied the EngineConfig";
  }
}

TEST(FleetTest, DigestsIndependentOfWorkerCount) {
  const sim::Duration run_time = sim::seconds(12);
  const std::vector<std::string> one =
      run_small_campaign(/*devices=*/64, /*workers=*/1, run_time);
  const std::vector<std::string> four =
      run_small_campaign(/*devices=*/64, /*workers=*/4, run_time);
  const std::vector<std::string> eight =
      run_small_campaign(/*devices=*/64, /*workers=*/8, run_time);
  ASSERT_EQ(one.size(), 64u);
  EXPECT_EQ(one, four);
  EXPECT_EQ(one, eight);
}

TEST(FleetTest, RepeatedRunsAreBitIdentical) {
  const sim::Duration run_time = sim::seconds(12);
  EXPECT_EQ(run_small_campaign(16, 4, run_time),
            run_small_campaign(16, 4, run_time));
}

TEST(FleetTest, DigestsIndependentOfEpochLength) {
  const auto run = [](sim::Duration epoch) {
    FleetOptions options = small_fleet_options(/*devices=*/8, /*workers=*/2);
    options.epoch = epoch;
    Fleet fleet(options);
    // Off the 250 ms sampler grid: a send colliding to the microsecond
    // with a device-internal event fires in injection order, which is an
    // epoch-dependent tie (see push_broker.h). Device 0 has stagger 0,
    // so shift the whole campaign 1 ms off the grid.
    PushCampaign campaign = flood_campaign(8);
    campaign.start = campaign.start + sim::millis(1);
    fleet.broker().add_campaign(campaign);
    fleet.start();
    fleet.run_for(sim::seconds(12));
    fleet.finish();
    return fleet.energy_digests();
  };
  EXPECT_EQ(run(sim::millis(500)), run(sim::seconds(3)));
}

TEST(FleetTest, ChaosOnASubsetIsWorkerCountIndependent) {
  // A generated program (fault ops included) on every third device, next
  // to the push campaign; per-device digests must still be
  // worker-count-invariant.
  const auto run = [](unsigned workers) {
    FleetOptions options = small_fleet_options(/*devices=*/24, workers);
    auto plan = std::make_shared<InstallPlan>(*options.install_plan);
    const auto cast = fuzz::cast_install_plan();
    for (const InstallPlan::Entry& app : cast->entries()) {
      plan->add(app.manifest, app.make_code);
    }
    options.install_plan = plan;
    Fleet fleet(options);
    fleet.broker().add_campaign(flood_campaign(6));
    fleet.start();
    std::vector<std::unique_ptr<fuzz::ProgramExecutor>> executors;
    for (std::size_t i = 0; i < fleet.size(); i += 3) {
      DeviceContext& device = fleet.device(i);
      executors.push_back(std::make_unique<fuzz::ProgramExecutor>(
          device, fuzz::generate({.seed = device.spec().seed,
                                  .min_steps = 8,
                                  .max_steps = 12})));
      executors.back()->arm();
    }
    fleet.run_for(sim::seconds(12));
    fleet.finish();
    return fleet.energy_digests();
  };
  const std::vector<std::string> one = run(1);
  EXPECT_EQ(one, run(4));
  // Sanity: the faulted devices diverged from the clean ones.
  EXPECT_NE(one[0], one[1]);
}

TEST(PushBrokerTest, DeliversTheCampaignCountAndChargesTheSender) {
  Fleet fleet(small_fleet_options(/*devices=*/3, /*workers=*/2));
  fleet.broker().add_campaign(flood_campaign(/*pushes_per_device=*/10));
  fleet.start();
  fleet.run_for(sim::seconds(30));
  fleet.finish();
  EXPECT_EQ(fleet.broker().scheduled_total(), 30u);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    DeviceContext& device = fleet.device(i);
    EXPECT_EQ(device.server().push().pushes_delivered(), 10u)
        << "device " << i;
    // The receiver's wake-up cost is collateral on the sender (the
    // push-attack extension the one-phone scenarios pinned).
    const kernelsim::Uid sender = device.uid_of("com.fleet.weather");
    EXPECT_GT(device.eandroid()->engine().collateral_mj(sender), 0.0)
        << "device " << i;
  }
}

TEST(PushBrokerTest, StrideTargetsOnlyTheSelectedSlice) {
  Fleet fleet(small_fleet_options(/*devices=*/4, /*workers=*/2));
  PushCampaign campaign = flood_campaign(4);
  campaign.device_stride = 2;
  campaign.device_phase = 1;
  fleet.broker().add_campaign(campaign);
  fleet.start();
  fleet.run_for(sim::seconds(10));
  fleet.finish();
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const std::uint64_t expected = (i % 2 == 1) ? 4u : 0u;
    EXPECT_EQ(fleet.device(i).server().push().pushes_delivered(), expected)
        << "device " << i;
  }
}

TEST(PushBrokerTest, ClosedFormWindowingMatchesBruteForce) {
  // inject() enumerates send instants in closed form (a k-range, not an
  // O(pushes_per_device) scan); may_send_in exposes the same range test.
  // Check it against the brute-force definition across awkward
  // geometries: windows before the first send, straddling the last one,
  // a degenerate zero period, stagger pushing sends across windows.
  PushBroker broker;
  PushCampaign drip = flood_campaign(9);
  drip.period = sim::millis(700);
  drip.device_stagger = sim::millis(333);
  broker.add_campaign(drip);
  PushCampaign burst = flood_campaign(4);
  burst.period = sim::Duration(0);  // all four sends at one instant
  burst.start = sim::TimePoint{} + sim::millis(4500);
  broker.add_campaign(burst);
  PushCampaign sliced = flood_campaign(6);
  sliced.device_stride = 2;
  sliced.device_phase = 1;
  broker.add_campaign(sliced);

  for (int device = 0; device < 4; ++device) {
    for (const std::int64_t begin_ms : {0, 1000, 2000, 4500, 7000, 60000}) {
      for (const std::int64_t len_ms : {1, 500, 2000, 10000}) {
        const sim::TimePoint begin =
            sim::TimePoint{} + sim::millis(begin_ms);
        const sim::TimePoint end = begin + sim::millis(len_ms);
        int expected = 0;
        for (const PushCampaign& c : broker.campaigns()) {
          if (c.device_stride > 1 &&
              device % c.device_stride != c.device_phase) {
            continue;
          }
          const sim::TimePoint first = c.start + c.device_stagger * device;
          for (int k = 0; k < c.pushes_per_device; ++k) {
            const sim::TimePoint at = first + c.period * k;
            if (at >= begin && at < end) ++expected;
          }
        }
        EXPECT_EQ(broker.may_send_in(device, begin, end), expected > 0)
            << "device " << device << " window [" << begin_ms << "ms, +"
            << len_ms << "ms)";
      }
    }
    // An empty window never sends.
    const sim::TimePoint t = sim::TimePoint{} + sim::seconds(3);
    EXPECT_FALSE(broker.may_send_in(device, t, t));
  }
}

TEST(AggregateTest, SumsMatchTheDevicesAndAreDeterministic) {
  const auto build = [] {
    auto fleet = std::make_unique<Fleet>(
        small_fleet_options(/*devices=*/6, /*workers=*/3));
    fleet->broker().add_campaign(flood_campaign(8));
    fleet->start();
    fleet->run_for(sim::seconds(15));
    fleet->finish();
    return fleet;
  };
  auto fleet = build();
  const FleetReport report = aggregate_fleet(*fleet);
  EXPECT_EQ(report.devices, 6);
  EXPECT_EQ(report.pushes_delivered, 6u * 8u);

  double true_total = 0.0;
  double consumed = 0.0;
  for (std::size_t i = 0; i < fleet->size(); ++i) {
    true_total += fleet->device(i).engine_report().true_total_mj;
    consumed += fleet->device(i).server().battery().consumed_total_mj();
  }
  EXPECT_DOUBLE_EQ(report.true_total_mj, true_total);
  EXPECT_DOUBLE_EQ(report.battery_consumed_mj, consumed);

  // Every package row is present on all six devices.
  bool saw_sender = false;
  for (const FleetPackageRow& row : report.packages) {
    EXPECT_EQ(row.devices, 6) << row.package;
    if (row.package == "com.fleet.weather") {
      saw_sender = true;
      EXPECT_GT(row.collateral_mj, 0.0);
    }
  }
  EXPECT_TRUE(saw_sender);

  auto again = build();
  EXPECT_EQ(report.digest(), aggregate_fleet(*again).digest());
}

TEST(FleetTest, StartTwiceIsACheckedError) {
  Fleet fleet(small_fleet_options(1, 1));
  fleet.start();
  EXPECT_THROW(fleet.start(), sim::CheckFailure);
}

TEST(InstallPlanTest, RejectsNullEntries) {
  InstallPlan plan;
  EXPECT_THROW(plan.add(std::shared_ptr<const framework::Manifest>{},
                        [] { return std::make_unique<DemoApp>(DemoAppSpec{}); }),
               sim::CheckFailure);
  EXPECT_THROW(plan.add(framework::Manifest{}, nullptr), sim::CheckFailure);
}

}  // namespace
}  // namespace eandroid::fleet
