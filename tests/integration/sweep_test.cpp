// Parameterized sweeps: invariants that must hold across whole parameter
// ranges, not just the defaults.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <map>
#include <ostream>
#include <string>

#include "apps/demo_app.h"
#include "apps/malware.h"
#include "apps/scenarios.h"
#include "apps/testbed.h"
#include "exp/parallel_runner.h"
#include "hw/cpu_power_model.h"

namespace eandroid::apps {
namespace {

// --- every scenario upholds the global invariants -------------------------

using ScenarioFn = ScenarioResult (*)(std::uint64_t, const TestbedOptions&);

ScenarioResult attack5_default(std::uint64_t seed,
                               const TestbedOptions& base) {
  return run_attack5(seed, 255, base);
}
ScenarioResult attack6_default(std::uint64_t seed,
                               const TestbedOptions& base) {
  return run_attack6(seed, false, base);
}

struct NamedScenario {
  const char* name;
  ScenarioFn fn;
};

// ctest names each discovered test after the printed parameter (as in
// the other sweeps below: .../attack1). Without a printer gtest prints
// the raw bytes, two pointers that move with every load of the binary,
// so the test names would change from one build to the next.
void PrintTo(const NamedScenario& s, std::ostream* os) { *os << s.name; }

constexpr std::array<NamedScenario, 12> kAllScenarios = {{
    {"scene1", run_scene1},
    {"scene2", run_scene2},
    {"attack1", run_attack1},
    {"attack2", run_attack2},
    {"attack3", run_attack3},
    {"attack4", run_attack4},
    {"attack5", attack5_default},
    {"attack6", attack6_default},
    {"chain", run_chain_attack},
    {"multi", run_multi_attack},
    {"push", run_push_flood},
    {"benign", run_benign_interruption},
}};

/// All twelve scenarios simulated once, fanned out across the
/// exp::ParallelRunner on first use; each TEST_P below asserts on its
/// slice of the shared batch instead of re-running serially.
const ScenarioResult& scenario_result(const char* name) {
  static const std::map<std::string, ScenarioResult> cache = [] {
    const auto results = exp::run_indexed<ScenarioResult>(
        kAllScenarios.size(),
        [](std::size_t i) { return kAllScenarios[i].fn(1, {}); });
    std::map<std::string, ScenarioResult> by_name;
    for (std::size_t i = 0; i < kAllScenarios.size(); ++i) {
      by_name.emplace(kAllScenarios[i].name, results[i]);
    }
    return by_name;
  }();
  return cache.at(name);
}

class ScenarioSweep : public ::testing::TestWithParam<NamedScenario> {};

TEST_P(ScenarioSweep, UpholdsGlobalInvariants) {
  const ScenarioResult& r = scenario_result(GetParam().name);
  // Conservation across all three profilers.
  EXPECT_NEAR(r.android_view.total_mj, r.battery_drained_mj, 1e-3);
  EXPECT_NEAR(r.powertutor_view.total_mj, r.battery_drained_mj, 1e-3);
  EXPECT_NEAR(r.ea_view.true_total_mj, r.battery_drained_mj, 1e-3);
  // No negative attribution; percents within [0, 200] (collateral rows
  // may exceed 100% of drain only in pathological chains, never 2x).
  for (const auto& row : r.ea_view.rows) {
    EXPECT_GE(row.original_mj, -1e-9) << row.label;
    EXPECT_GE(row.collateral_mj, -1e-9) << row.label;
  }
  // Window bookkeeping closed out.
  EXPECT_GE(r.windows_opened, r.windows_closed);
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, ScenarioSweep,
                         ::testing::ValuesIn(kAllScenarios));

// --- attack #5: collateral monotone in the escalation level ---------------

class BrightnessSweep : public ::testing::TestWithParam<int> {};

TEST_P(BrightnessSweep, CollateralGrowsWithLevel) {
  const int level = GetParam();
  const ScenarioResult r = run_attack5(1, level);
  const core::EARow* malware = r.ea_view.row_of(BrightnessMalware::kPackage);
  ASSERT_NE(malware, nullptr);
  // The auto level is 102; levels above it cost, proportionally.
  const double expected_ratio =
      static_cast<double>(level - 102) / (255 - 102);
  const ScenarioResult full = run_attack5(1, 255);
  const double full_collateral =
      full.ea_view.row_of(BrightnessMalware::kPackage)->collateral_mj;
  EXPECT_NEAR(malware->collateral_mj / full_collateral, expected_ratio, 0.08)
      << "level " << level;
}

INSTANTIATE_TEST_SUITE_P(Levels, BrightnessSweep,
                         ::testing::Values(120, 160, 200, 255));

// --- sampling period must not change the accounting -----------------------

class SamplePeriodSweep : public ::testing::TestWithParam<int> {};

TEST_P(SamplePeriodSweep, AccountingIndependentOfPeriod) {
  TestbedOptions options;
  options.sample_period = sim::millis(GetParam());
  Testbed bed(options);
  DemoAppSpec spec = message_spec();
  spec.foreground_cpu = 0.3;
  bed.install<DemoApp>(spec);
  bed.start();
  bed.server().user_launch("com.example.message");
  bed.run_for(sim::seconds(30));
  // Steady load: the integral is exact regardless of window size.
  EXPECT_NEAR(bed.battery_stats().app_energy_mj(
                  bed.uid_of("com.example.message")),
              0.3 * 1000.0 * 30.0, 1.0)
      << "period " << GetParam() << " ms";
  EXPECT_NEAR(bed.battery_stats().total_mj(),
              bed.server().battery().consumed_total_mj(), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Periods, SamplePeriodSweep,
                         ::testing::Values(50, 100, 250, 500, 1000));

// --- all screen-keeping wakelock types behave identically ------------------

class WakelockTypeSweep
    : public ::testing::TestWithParam<framework::WakelockType> {};

TEST_P(WakelockTypeSweep, ScreenKeepingLocksForceScreenAndCharge) {
  Testbed bed;
  DemoAppSpec spec = message_spec();
  spec.package = "com.locker";
  spec.permissions = {framework::Permission::kWakeLock};
  bed.install<DemoApp>(spec);
  bed.start();
  bed.context_of("com.locker").acquire_wakelock(GetParam(), "sweep");
  bed.run_for(sim::minutes(2));
  const bool keeps_screen = framework::keeps_screen_on(GetParam());
  EXPECT_EQ(bed.server().power().screen_on(), keeps_screen);
  EXPECT_FALSE(bed.server().power().suspended());  // all types keep CPU
  const double screen_collateral = bed.eandroid()->engine().collateral_from(
      bed.uid_of("com.locker"), core::Entity::screen());
  if (keeps_screen) {
    EXPECT_GT(screen_collateral, 0.0);
  } else {
    EXPECT_DOUBLE_EQ(screen_collateral, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Types, WakelockTypeSweep,
                         ::testing::Values(framework::WakelockType::kPartial,
                                           framework::WakelockType::kScreenDim,
                                           framework::WakelockType::kScreenBright,
                                           framework::WakelockType::kFull));

// --- DVFS: energy monotone in load across the step boundaries -------------

class DvfsLoadSweep : public ::testing::TestWithParam<int> {};

TEST_P(DvfsLoadSweep, EnergyMonotoneAndConserved) {
  TestbedOptions options;
  options.params = hw::nexus4_dvfs_params();
  Testbed bed(options);
  DemoAppSpec spec = message_spec();
  spec.foreground_cpu = GetParam() / 100.0;
  bed.install<DemoApp>(spec);
  bed.start();
  bed.server().user_launch("com.example.message");
  bed.run_for(sim::seconds(20));
  EXPECT_NEAR(bed.battery_stats().total_mj(),
              bed.server().battery().consumed_total_mj(), 1e-3);
  // Cross-check against the model directly.
  const hw::CpuPowerModel model(bed.server().params());
  const double expected =
      model.operating_point(GetParam() / 100.0).active_mw * 20.0;
  EXPECT_NEAR(bed.battery_stats().app_energy_mj(
                  bed.uid_of("com.example.message")),
              expected, expected * 0.02 + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Loads, DvfsLoadSweep,
                         ::testing::Values(10, 25, 40, 60, 85, 100));

}  // namespace
}  // namespace eandroid::apps
