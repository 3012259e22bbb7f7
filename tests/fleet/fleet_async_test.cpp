// The fleet scheduler's contract: worker counts and consolidation change
// throughput, never results.
//
//   * digests are bitwise identical to the serial reference (each device
//     built alone and driven window by window with run_serially) across
//     worker counts and multi-call run_for timelines;
//   * with tracing on, the per-device trace BYTES match the serial
//     reference too (consolidation only triggers with tracing off);
//   * the scheduler's window and task counts do not depend on workers;
//   * a device that throws fails run_for with the lowest device's error,
//     after every other device reached the window end;
//   * a mutation made through device(i) between runs reaches that device
//     and no other;
//   * campaign mutation after start is a checked error.
//
// Runs under the tsan label with multi-worker fleets: the worker pool's
// batch hand-off, the broker's frozen read path, and the per-device
// scheduler counts read after the barrier are the entire race surface.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/demo_app.h"
#include "fleet/fleet.h"

namespace eandroid::fleet {
namespace {

using apps::DemoApp;
using apps::DemoAppSpec;

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
  campaign.start = sim::TimePoint{} + sim::seconds(2) + sim::millis(1);
  campaign.period = sim::millis(750);
  campaign.pushes_per_device = pushes_per_device;
  campaign.device_stagger = sim::millis(13);
  return campaign;
}

FleetOptions base_options(int devices) {
  FleetOptions options;
  options.device_count = devices;
  options.install_plan = campaign_plan();
  options.epoch = sim::seconds(2);
  options.workers = 2;
  return options;
}

/// The shared two-leg timeline: two run_for calls, so windows span
/// multiple dispatches.
constexpr sim::Duration kLegs[] = {sim::seconds(7), sim::seconds(5)};

/// Runs the shared timeline on a fleet and returns the digests.
std::vector<std::string> run_fleet(FleetOptions options) {
  Fleet fleet(std::move(options));
  fleet.broker().add_campaign(flood_campaign(/*pushes_per_device=*/8));
  fleet.start();
  for (const sim::Duration leg : kLegs) fleet.run_for(leg);
  fleet.finish();
  return fleet.energy_digests();
}

/// The serial reference: every device of `options` built alone and driven
/// through `legs` with run_serially. Returns the digests, and the trace
/// texts when the options trace.
std::pair<std::vector<std::string>, std::vector<std::string>> run_serial(
    const FleetOptions& options, const PushCampaign& campaign,
    std::initializer_list<sim::Duration> legs) {
  PushBroker broker;
  broker.add_campaign(campaign);
  std::vector<std::string> digests;
  std::vector<std::string> traces;
  for (int i = 0; i < options.device_count; ++i) {
    DeviceContext device(device_spec(options, i));
    device.start();
    for (const sim::Duration leg : legs) {
      run_serially(device, i, broker, leg, options.epoch);
    }
    device.finish();
    digests.push_back(device.energy_digest());
    traces.push_back(device.trace_text());
  }
  return {digests, traces};
}

std::vector<std::string> serial_digests(int devices) {
  return run_serial(base_options(devices), flood_campaign(8),
                    {kLegs[0], kLegs[1]})
      .first;
}

TEST(FleetAsyncTest, DigestsMatchSerialReferenceAcrossWorkerCounts) {
  const std::vector<std::string> reference = serial_digests(16);
  ASSERT_EQ(reference.size(), 16u);
  for (const unsigned workers : {1u, 2u, 3u, 4u}) {
    FleetOptions options = base_options(16);
    options.workers = workers;
    EXPECT_EQ(run_fleet(options), reference) << "workers=" << workers;
  }
}

TEST(FleetAsyncTest, TraceBytesMatchSerialReference) {
  // Tracing disables window consolidation, so the fleet must emit the
  // exact per-window mark sequence the serial loop does.
  FleetOptions options = base_options(6);
  options.workers = 3;
  options.obs.trace = true;
  Fleet fleet(options);
  fleet.broker().add_campaign(flood_campaign(5));
  fleet.start();
  fleet.run_for(sim::seconds(9));
  fleet.finish();
  std::vector<std::string> traces;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    traces.push_back(fleet.device(i).trace_text());
  }
  const std::vector<std::string> reference =
      run_serial(options, flood_campaign(5), {sim::seconds(9)}).second;
  ASSERT_FALSE(reference[0].empty());
  EXPECT_EQ(traces, reference);
}

TEST(FleetAsyncTest, RunForRethrowsTheLowestDeviceErrorAfterEveryDeviceRan) {
  // Devices 2 and 5 fail mid-window, device 2 last in wall time. Whatever
  // thread runs them, run_for reports device 2, and only after every
  // other device has reached the end of the call.
  for (const unsigned workers : {1u, 4u}) {
    FleetOptions options = base_options(8);
    options.workers = workers;
    Fleet fleet(options);
    fleet.broker().add_campaign(flood_campaign(4));
    fleet.start();
    for (const std::size_t failing : {2u, 5u}) {
      fleet.device(failing).sim().schedule_at(
          sim::TimePoint{} + sim::seconds(3), [failing] {
            if (failing == 2) {
              std::this_thread::sleep_for(std::chrono::milliseconds(20));
            }
            throw std::runtime_error("device " + std::to_string(failing));
          });
    }
    try {
      fleet.run_for(sim::seconds(6));
      ADD_FAILURE() << "run_for did not rethrow, workers=" << workers;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "device 2") << "workers=" << workers;
    }
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      if (i == 2 || i == 5) continue;
      EXPECT_EQ(fleet.device(i).sim().now().micros(), fleet.now().micros())
          << "device " << i << ", workers=" << workers;
    }
  }
}

TEST(FleetAsyncTest, TouchedDevicesArePinnedNotReplayedAway) {
  // A mutation made through device(i) between two run_for calls must
  // stick on that device and reach no other.
  const auto run = [](bool poke) {
    Fleet fleet(base_options(8));
    fleet.broker().add_campaign(flood_campaign(6));
    fleet.start();
    fleet.run_for(sim::seconds(6));
    if (poke) {
      // An out-of-band push at the 6 s cut — an external mutation the
      // broker's schedule knows nothing about.
      auto& server = fleet.device(2).server();
      const auto* weather = server.packages().find("com.fleet.weather");
      EXPECT_NE(weather, nullptr);
      server.ensure_process(weather->uid);
      server.push().send_push(weather->uid, "com.fleet.syncclient");
    }
    fleet.run_for(sim::seconds(6));
    fleet.finish();
    return fleet.energy_digests();
  };
  const std::vector<std::string> poked = run(true);
  const std::vector<std::string> clean = run(false);
  ASSERT_EQ(poked.size(), clean.size());
  for (std::size_t i = 0; i < poked.size(); ++i) {
    if (i == 2) {
      EXPECT_NE(poked[i], clean[i]) << "the poke did not reach device 2";
    } else {
      EXPECT_EQ(poked[i], clean[i]) << "the poke leaked to device " << i;
    }
  }
}

TEST(FleetAsyncTest, SchedulerCountsDoNotDependOnWorkers) {
  // The window and task counts are deterministic per fleet run (e2ebench
  // compares them run to run).
  constexpr int kDevices = 6;
  constexpr sim::Duration kRun = sim::seconds(60);
  const auto counts = [&](unsigned workers) {
    FleetOptions options = base_options(kDevices);
    options.workers = workers;
    Fleet fleet(std::move(options));
    fleet.broker().add_campaign(flood_campaign(3));
    fleet.start();
    fleet.run_for(kRun);
    fleet.finish();
    const obs::MetricsSnapshot m = fleet.scheduler_metrics();
    return std::vector<std::uint64_t>{
        m.find("fleet.sched.windows_advanced")->count,
        m.find("fleet.sched.windows_consolidated")->count,
        m.find("fleet.sched.tasks_executed")->count};
  };
  const std::vector<std::uint64_t> one = counts(1);
  const std::vector<std::uint64_t> four = counts(4);
  const auto windows = static_cast<std::uint64_t>(
      kRun.micros() / base_options(kDevices).epoch.micros());
  EXPECT_EQ(one[0], kDevices * windows);
  EXPECT_EQ(four[0], kDevices * windows);
  EXPECT_GT(one[1], 0u);
  EXPECT_EQ(four[1], one[1]);
  EXPECT_EQ(four[2], one[2]);
}

TEST(FleetAsyncTest, CampaignAfterAsyncStartIsACheckedError) {
  Fleet fleet(base_options(2));
  fleet.broker().add_campaign(flood_campaign(2));
  fleet.start();
  EXPECT_THROW(fleet.broker().add_campaign(flood_campaign(2)),
               sim::CheckFailure);
}

TEST(FleetAsyncTest, ConsolidationSkipsSendlessWindows) {
  // A campaign confined to the first seconds of a long run leaves a tail
  // of sendless windows; with tracing off the scheduler must fold them.
  FleetOptions options = base_options(4);
  Fleet fleet(options);
  PushCampaign campaign = flood_campaign(3);
  fleet.broker().add_campaign(campaign);
  fleet.start();
  fleet.run_for(sim::seconds(60));
  fleet.finish();
  const obs::MetricsSnapshot metrics = fleet.scheduler_metrics();
  ASSERT_NE(metrics.find("fleet.sched.windows_consolidated"), nullptr);
  EXPECT_GT(metrics.find("fleet.sched.windows_consolidated")->count, 0u);
  // Consolidated or not, the digests match the window-by-window serial
  // reference.
  EXPECT_EQ(fleet.energy_digests(),
            run_serial(options, campaign, {sim::seconds(60)}).first);
}

}  // namespace
}  // namespace eandroid::fleet
