// The fleet acceptance run: a 1,000-device population runs a
// 10-simulated-minute push-campaign workload to completion in a single
// process, and every device's full-precision energy digest is bitwise
// identical across worker counts {1, 4, 8} and across two repeated runs.
//
// This is the scale contract of the fleet layer — kept out of the tsan
// label (a sanitized build would multiply the runtime ~20x; the smaller
// worker-independence tests in fleet_test.cpp cover the race surface
// under TSan with the same code paths).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/demo_app.h"
#include "fleet/aggregate.h"
#include "fleet/fleet.h"

namespace eandroid::fleet {
namespace {

using apps::DemoApp;
using apps::DemoAppSpec;

constexpr int kDevices = 1000;
constexpr sim::Duration kRunTime = sim::minutes(10);

std::shared_ptr<const InstallPlan> campaign_plan() {
  auto plan = std::make_shared<InstallPlan>();
  DemoAppSpec sender;
  sender.package = "com.fleet.weather";
  plan->add_app<DemoApp>(sender);

  DemoAppSpec victim;
  victim.package = "com.fleet.syncclient";
  victim.push_endpoint = true;
  plan->add_app<DemoApp>(victim);
  return plan;
}

std::vector<std::string> run_campaign(unsigned workers) {
  FleetOptions options;
  options.device_count = kDevices;
  options.workers = workers;
  options.epoch = sim::seconds(10);
  options.install_plan = campaign_plan();
  Fleet fleet(options);

  // A slow steady drip across the whole run: one push every 15 s per
  // device, phase-staggered so the population never ticks in unison.
  PushCampaign campaign;
  campaign.sender_package = "com.fleet.weather";
  campaign.target_package = "com.fleet.syncclient";
  campaign.start = sim::TimePoint{} + sim::seconds(5);
  campaign.period = sim::seconds(15);
  campaign.pushes_per_device = 39;  // last lands at 575 s + stagger
  campaign.device_stagger = sim::millis(7);
  fleet.broker().add_campaign(campaign);

  fleet.start();
  fleet.run_for(kRunTime);
  fleet.finish();
  return fleet.energy_digests();
}

TEST(FleetCampaignTest, ThousandDevicesWorkerAndRepeatInvariant) {
  const std::vector<std::string> workers1 = run_campaign(1);
  ASSERT_EQ(workers1.size(), static_cast<std::size_t>(kDevices));
  // No empty digests, and stagger makes devices distinct populations.
  EXPECT_FALSE(workers1.front().empty());
  EXPECT_NE(workers1.front(), workers1.back());

  const std::vector<std::string> workers4 = run_campaign(4);
  const std::vector<std::string> workers8 = run_campaign(8);
  const std::vector<std::string> repeat = run_campaign(4);

  // Per-device, bitwise. EXPECT_EQ on the vectors would drown the log on
  // failure; compare element-wise and report the first few divergences.
  int mismatches = 0;
  for (int i = 0; i < kDevices && mismatches < 3; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    EXPECT_EQ(workers1[idx], workers4[idx]) << "device " << i << " (1 vs 4)";
    EXPECT_EQ(workers1[idx], workers8[idx]) << "device " << i << " (1 vs 8)";
    EXPECT_EQ(workers4[idx], repeat[idx]) << "device " << i << " (repeat)";
    if (workers1[idx] != workers4[idx] || workers1[idx] != workers8[idx] ||
        workers4[idx] != repeat[idx]) {
      ++mismatches;
    }
  }
  EXPECT_EQ(workers1, workers4);
  EXPECT_EQ(workers1, workers8);
  EXPECT_EQ(workers4, repeat);
}

}  // namespace
}  // namespace eandroid::fleet
