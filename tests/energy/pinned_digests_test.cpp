// Full-precision pin of the metering arithmetic (the `metering` ctest
// label). A 32-device, one-simulated-hour fleet in the shape of
// e2ebench's fleet_campaign — the Fig 9 cast running generated 30-step
// programs (10–70 s gaps, charger ops included), a push flood on every
// fourth device and a slow sync campaign on all — is compared bit for
// bit with digests committed in tests/energy/pinned/: every device's
// energy_digest() and the FleetReport digest.
//
// The golden traces pin nanojoule-rounded marks and the fleet suites
// compare a build only with itself; this pin catches a change that
// moves any accumulator's low-order bits. The digests use only + − × ÷,
// floor and llround, so they are portable across toolchains.
//
// On a mismatch the test writes the digests it computed to
// `pinned_fleet_digests.actual` in its working directory. Regenerate the
// committed file only deliberately, by copying that file over it.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "apps/demo_app.h"
#include "fleet/aggregate.h"
#include "fleet/fleet.h"
#include "fuzz/executor.h"
#include "fuzz/generator.h"
#include "sim/rng.h"

namespace eandroid::fleet {
namespace {

constexpr int kDevices = 32;
constexpr int kFloodStride = 4;
constexpr const char* kFloodPackage = "com.pin.flood";
constexpr const char* kSyncPackage = "com.pin.sync";
constexpr sim::Duration kHorizon = sim::seconds(3600);

/// One digest per line; the report digest's metric table has newlines.
std::string escape(const std::string& digest) {
  std::string out;
  for (const char c : digest) {
    if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// Every device's digest, then the FleetReport digest, escaped.
std::vector<std::string> run_pinned_fleet() {
  sim::Rng rng(0x5eed'd16e'57ULL);

  auto plan = std::make_shared<InstallPlan>();
  const std::shared_ptr<const InstallPlan> cast = fuzz::cast_install_plan();
  for (const InstallPlan::Entry& entry : cast->entries()) {
    plan->add(entry.manifest, entry.make_code);
  }
  for (const char* sender : {kFloodPackage, kSyncPackage}) {
    apps::DemoAppSpec spec;
    spec.package = sender;
    plan->add_app<apps::DemoApp>(spec);
  }

  // Declared before the fleet, whose devices hold the armed closures, so
  // the fleet is destroyed first.
  std::vector<std::unique_ptr<fuzz::ProgramExecutor>> executors;
  FleetOptions options;
  options.device_count = kDevices;
  options.base_seed = rng();
  options.workers = 2;
  options.epoch = sim::seconds(1);
  options.install_plan = plan;
  Fleet fleet(options);

  // Off the 250 ms sampling grid, like e2ebench's campaigns; each sends
  // as many pushes as fit in the horizon on the device it starts last.
  const auto pushes = [](const PushCampaign& c) {
    const std::int64_t last_start_us =
        c.start.micros() + c.device_stagger.micros() * (kDevices - 1);
    return static_cast<int>(
        (kHorizon.micros() - last_start_us) / c.period.micros() + 1);
  };
  PushCampaign flood;
  flood.sender_package = kFloodPackage;
  flood.target_package = fuzz::kCastPackages[fuzz::kPushApp];
  flood.start = sim::TimePoint{} + sim::micros(1'526'173);
  flood.period = sim::micros(1'007'919);
  flood.device_stagger = sim::micros(13'001);
  flood.pushes_per_device = pushes(flood);
  flood.device_stride = kFloodStride;
  flood.device_phase = 1;
  fleet.broker().add_campaign(flood);

  PushCampaign sync;
  sync.sender_package = kSyncPackage;
  sync.target_package = fuzz::kCastPackages[fuzz::kPushApp];
  sync.start = sim::TimePoint{} + sim::micros(30'000'311);
  sync.period = sim::micros(300'007'919);
  sync.device_stagger = sim::micros(1'009'001);
  sync.pushes_per_device = pushes(sync);
  sync.bytes = 16384;
  fleet.broker().add_campaign(sync);

  fleet.start();
  for (int i = 0; i < kDevices; ++i) {
    fuzz::GeneratorOptions generator;
    generator.seed = rng();
    generator.min_steps = 30;
    generator.max_steps = 30;
    generator.min_gap_us = 10'000'001;
    generator.max_gap_us = 70'000'003;
    executors.push_back(std::make_unique<fuzz::ProgramExecutor>(
        fleet.device(static_cast<std::size_t>(i)), fuzz::generate(generator)));
    executors.back()->arm();
  }
  fleet.run_for(kHorizon);
  fleet.finish();

  std::vector<std::string> out;
  for (const std::string& digest : fleet.energy_digests()) {
    out.push_back(escape(digest));
  }
  out.push_back(escape(aggregate_fleet(fleet).digest()));
  return out;
}

TEST(PinnedDigestsTest, FleetCampaignShapeMatchesTheCommittedBits) {
  const std::vector<std::string> actual = run_pinned_fleet();
  ASSERT_EQ(actual.size(), static_cast<std::size_t>(kDevices) + 1);

  std::vector<std::string> pinned;
  std::ifstream in(EANDROID_METERING_PINNED);
  for (std::string line; std::getline(in, line);) pinned.push_back(line);

  if (pinned != actual) {
    std::ofstream dump("pinned_fleet_digests.actual");
    for (const std::string& line : actual) dump << line << '\n';
  }
  ASSERT_EQ(pinned.size(), actual.size())
      << "missing or truncated " << EANDROID_METERING_PINNED;
  // Element-wise, so a failure names the device instead of dumping 33
  // kilobyte-long strings.
  int mismatches = 0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (pinned[i] == actual[i]) continue;
    if (++mismatches <= 3) {
      ADD_FAILURE() << (i < static_cast<std::size_t>(kDevices)
                            ? "device " + std::to_string(i)
                            : std::string("FleetReport"))
                    << " digest differs from the pin";
    }
  }
  EXPECT_EQ(mismatches, 0);
}

}  // namespace
}  // namespace eandroid::fleet
