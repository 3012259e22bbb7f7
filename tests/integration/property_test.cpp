// Property-based tests: invariants that must hold under randomized event
// interleavings (generated scenario programs, fault ops included, over
// the whole device model).
#include <gtest/gtest.h>

#include <tuple>

#include "apps/testbed.h"
#include "fuzz/executor.h"
#include "fuzz/generator.h"

namespace eandroid::apps {
namespace {

/// Installs the fuzz cast on `bed`, starts it, and replays the program of
/// `seed` with exactly `steps` steps, 0.1-2.1 s apart, to its horizon.
void run_program(Testbed& bed, std::uint64_t seed, int steps) {
  fuzz::install_cast(bed);
  bed.start();
  fuzz::ProgramExecutor(bed, fuzz::generate({.seed = seed,
                                             .min_steps = steps,
                                             .max_steps = steps,
                                             .min_gap_us = 100'001,
                                             .max_gap_us = 2'100'007}))
      .run();
}

class PropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PropertyTest, InvariantsHoldUnderRandomInterleavings) {
  Testbed bed({.seed = GetParam()});
  run_program(bed, GetParam(), 120);

  auto* ea = bed.eandroid();
  ASSERT_NE(ea, nullptr);

  // 1. Energy conservation: every profiler's grand total equals the
  //    battery drain, and E-Android's neutral rows are included.
  const double drained = bed.server().battery().consumed_total_mj();
  EXPECT_NEAR(bed.battery_stats().total_mj(), drained, 1e-3);
  EXPECT_NEAR(bed.power_tutor().total_mj(), drained, 1e-3);
  EXPECT_NEAR(ea->engine().true_total_mj(), drained, 1e-3);

  // 2. No negative attribution anywhere.
  const core::EAView view = ea->view();
  for (const auto& row : view.rows) {
    EXPECT_GE(row.original_mj, 0.0) << row.label;
    EXPECT_GE(row.collateral_mj, 0.0) << row.label;
    for (const auto& item : row.inventory) {
      EXPECT_GE(item.energy_mj, 0.0) << row.label << " <- " << item.label;
    }
  }
  EXPECT_GE(view.screen_row_mj, -1e-9);
  EXPECT_GE(view.system_row_mj, 0.0);

  // 3. Window bookkeeping: opened = closed + still-open.
  EXPECT_EQ(ea->tracker().opened_total(),
            ea->tracker().closed_total() + ea->tracker().open_count());

  // 4. No single collateral charge can exceed the total battery drain.
  for (const auto& row : view.rows) {
    for (const auto& item : row.inventory) {
      EXPECT_LE(item.energy_mj, drained + 1e-6);
    }
  }

  // 5. Stock profilers and E-Android agree on each app's direct energy.
  for (const auto& row : view.rows) {
    if (!row.uid.valid()) continue;
    EXPECT_NEAR(row.original_mj, bed.battery_stats().app_energy_mj(row.uid),
                1e-6)
        << row.label;
  }

  // 6. Window state machines never leave a window on a dead driven app.
  for (const auto& [id, window] : ea->tracker().open_windows()) {
    if (window.kind == core::WindowKind::kActivity ||
        window.kind == core::WindowKind::kInterrupt ||
        window.kind == core::WindowKind::kService) {
      EXPECT_TRUE(bed.server().pid_of(window.driven).valid())
          << "open window on dead uid " << window.driven.value;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(DeterminismTest, SameSeedSameTrace) {
  auto run = [](std::uint64_t seed) {
    Testbed bed({.seed = seed});
    run_program(bed, seed, 60);
    return std::make_tuple(bed.server().battery().drained_mj(),
                           bed.eandroid()->tracker().opened_total(),
                           bed.eandroid()->tracker().closed_total(),
                           bed.server().events().published_count());
  };
  EXPECT_EQ(run(1234), run(1234));
  EXPECT_NE(std::get<0>(run(1)), std::get<0>(run(2)));
}

TEST(PropertyTest, LmkEnabledKeepsInvariants) {
  // Same fuzz with memory pressure active: kills mid-window must not
  // break conservation or window bookkeeping.
  Testbed bed({.seed = 77});
  bed.server().lmk().set_budget_mb(400);
  run_program(bed, 77, 150);
  const double drained = bed.server().battery().consumed_total_mj();
  EXPECT_NEAR(bed.eandroid()->engine().true_total_mj(), drained, 1e-3);
  EXPECT_EQ(bed.eandroid()->tracker().opened_total(),
            bed.eandroid()->tracker().closed_total() +
                bed.eandroid()->tracker().open_count());
}

}  // namespace
}  // namespace eandroid::apps
