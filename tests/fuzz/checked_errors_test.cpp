// Negative paths the fuzzer's machinery leans on: every misuse below
// must fail loudly (EANDROID_CHECK throws in all build types), because a
// silent clamp or late crash would turn a fuzz failure into noise. A
// legal-looking option mix, by contrast, must simply run.
#include <gtest/gtest.h>

#include "fleet/fleet.h"
#include "fuzz/executor.h"
#include "fuzz/generator.h"
#include "sim/check.h"

namespace eandroid::fuzz {
namespace {

TEST(CheckedErrorsTest, ArmingAProgramAfterItsFirstInstantThrows) {
  // Steps are scheduled at absolute instants; a device whose clock has
  // already passed a step's time must refuse (schedule_at-in-the-past),
  // not silently reorder the program.
  GeneratorOptions gen;
  gen.seed = 4;
  const ScenarioProgram program = generate(gen);
  fleet::DeviceContext bed{fleet::DeviceSpec{}};
  install_cast(bed);
  bed.start();
  bed.run_for(sim::micros(program.steps.front().at_us + 1));
  ProgramExecutor executor(bed, program);
  EXPECT_THROW(executor.arm(), sim::CheckFailure);
}

TEST(CheckedErrorsTest, BrokerMutationAfterFreezeThrows) {
  fleet::PushBroker broker;
  fleet::PushCampaign campaign;
  campaign.sender_package = kCastPackages[2];
  campaign.target_package = kCastPackages[kPushApp];
  broker.add_campaign(campaign);
  broker.freeze();
  EXPECT_THROW(broker.add_campaign(campaign), sim::CheckFailure);
}

TEST(CheckedErrorsTest, CampaignAfterWorkStealingStartThrows) {
  // The fleet-level shape of the same rule: start() freezes the broker
  // because workers read campaigns concurrently.
  fleet::FleetOptions options;
  options.device_count = 2;
  options.workers = 2;
  options.install_plan = cast_install_plan();
  fleet::Fleet fleet(std::move(options));
  fleet::PushCampaign campaign;
  campaign.sender_package = kCastPackages[2];
  campaign.target_package = kCastPackages[kPushApp];
  fleet.broker().add_campaign(campaign);
  fleet.start();
  EXPECT_THROW(fleet.broker().add_campaign(campaign), sim::CheckFailure);
}

TEST(CheckedErrorsTest, ContextOfUnknownPackageThrows) {
  // A misspelt package must fail by name, not dereference a null record.
  fleet::DeviceContext bed{fleet::DeviceSpec{}};
  install_cast(bed);
  EXPECT_THROW(bed.context_of("com.not.installed"), sim::CheckFailure);
  EXPECT_NO_THROW(bed.context_of(kCastPackages[kPushApp]));
}

}  // namespace
}  // namespace eandroid::fuzz
