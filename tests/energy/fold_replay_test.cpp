// Fold replay on a live device (the `metering` ctest label). A kept tick
// folded against unchanged window state replays the recorded fold
// (energy/pipeline.h). Every test checks the profilers against a
// reference sink that folds every slice itself — external sinks see
// every slice, replayed or not — so a replay that drifts from a full
// fold by one bit fails here, next to the event that caused it.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "apps/demo_app.h"
#include "apps/testbed.h"
#include "energy/pipeline.h"

namespace eandroid::energy {
namespace {

using apps::DemoApp;

constexpr const char* kDriver = "com.replay.driver";
constexpr const char* kDriven = "com.replay.driven";

/// Folds every slice with the built-in profilers' associations: the
/// BatteryStats row (sum_at), the PowerTutor and engine part columns,
/// both tails, and the engine's battery ground truth (total_mj()).
class ReferenceSink : public AccountingSink {
 public:
  struct Row {
    double sum = 0.0;
    double parts[EnergySlice::kParts] = {};
  };

  void on_slice(const EnergySlice& slice) override {
    for (const kernelsim::AppIdx idx : slice.active()) {
      Row& row = rows[slice.uid_at(idx).value];
      row.sum += slice.sum_at(idx);
      row.parts[0] += slice.cpu_mj(idx);
      row.parts[1] += slice.camera_mj(idx);
      row.parts[2] += slice.gps_mj(idx);
      row.parts[3] += slice.wifi_mj(idx);
      row.parts[4] += slice.audio_mj(idx);
    }
    screen_mj += slice.screen_mj;
    system_mj += slice.system_mj;
    total_mj += slice.total_mj();
  }

  void reset() { *this = ReferenceSink(); }

  std::map<std::int32_t, Row> rows;
  double screen_mj = 0.0;
  double system_mj = 0.0;
  double total_mj = 0.0;
};

class FoldReplayTest : public ::testing::Test {
 protected:
  FoldReplayTest() : bed_(options()) {
    apps::DemoAppSpec driver = apps::message_spec();
    driver.package = kDriver;
    bed_.install<DemoApp>(driver);
    apps::DemoAppSpec driven = apps::victim_spec();
    driven.package = kDriven;
    driven.foreground_cpu = 0.2;
    bed_.install<DemoApp>(driven);
    bed_.sampler().add_sink(&reference_);
    bed_.start();
  }

  static apps::TestbedOptions options() {
    apps::TestbedOptions o;
    o.obs.trace = true;
    return o;
  }

  /// The driver starts the driven app's activity: an activity window
  /// driver -> driven that charges the driven app's CPU to the driver.
  void open_chain() {
    bed_.server().user_launch(kDriver);
    bed_.context_of(kDriver).start_activity(
        framework::Intent::explicit_for(kDriven, DemoApp::kRootActivity));
  }

  struct Tick {
    bool kept = false;
    bool replayed = false;
    /// A window opened or closed since the previous tick().
    bool window_moved = false;
    int collateral_marks = 0;  ///< engine.collateral marks at this tick
    std::int64_t collateral_arg = 0;
    std::uint64_t chained_observations = 0;
  };

  /// Runs one sampling period, from a tick instant to the next, and
  /// reports the tick (the trace starts empty).
  Tick tick() {
    obs::TraceRecorder& trace = *bed_.obs().trace();
    trace.clear();
    const std::uint64_t reused = bed_.sampler().gathers_reused();
    const std::uint64_t replayed = bed_.pipeline().folds_replayed();
    const std::uint64_t observed = chained_observations();
    bed_.sim().run_for(sim::millis(250));
    Tick t;
    t.kept = bed_.sampler().gathers_reused() == reused + 1;
    t.replayed = bed_.pipeline().folds_replayed() == replayed + 1;
    const std::uint64_t generation = bed_.eandroid()->tracker().generation();
    t.window_moved = generation != last_generation_;
    last_generation_ = generation;
    t.chained_observations = chained_observations() - observed;
    const kernelsim::RoutineIdx name =
        trace.names().find_routine("engine.collateral");
    trace.for_each([&](const obs::TraceEvent& e) {
      if (e.name != name) return;
      EXPECT_EQ(e.t_us, bed_.sim().now().micros());
      ++t.collateral_marks;
      t.collateral_arg = e.arg;
    });
    return t;
  }

  std::uint64_t chained_observations() const {
    const obs::MetricsSnapshot snap = bed_.metrics_snapshot();
    const obs::MetricRow* row = snap.find("engine.collateral_chained_mj");
    return row == nullptr ? 0 : row->count;
  }

  /// Every profiler total the reference can reproduce, bit for bit.
  void expect_matches_reference() {
    const core::EAndroidEngine& engine = bed_.eandroid()->engine();
    for (const auto& [uid_value, row] : reference_.rows) {
      const kernelsim::Uid uid{uid_value};
      EXPECT_EQ(bed_.battery_stats().app_energy_mj(uid), row.sum) << uid_value;
      const AppSliceEnergy* direct = engine.direct_breakdown(uid);
      const double engine_parts[EnergySlice::kParts] = {
          direct ? direct->cpu_mj : 0.0, direct ? direct->camera_mj : 0.0,
          direct ? direct->gps_mj : 0.0, direct ? direct->wifi_mj : 0.0,
          direct ? direct->audio_mj : 0.0};
      constexpr HwPart kParts[EnergySlice::kParts] = {
          HwPart::kCpu, HwPart::kCamera, HwPart::kGps, HwPart::kWifi,
          HwPart::kAudio};
      for (int p = 0; p < EnergySlice::kParts; ++p) {
        EXPECT_EQ(bed_.power_tutor().component_energy_mj(uid, kParts[p]),
                  row.parts[p])
            << uid_value << " part " << p;
        if (row.sum > 0.0) {
          EXPECT_EQ(engine_parts[p], row.parts[p])
              << uid_value << " part " << p;
        }
      }
    }
    EXPECT_EQ(bed_.battery_stats().screen_energy_mj(), reference_.screen_mj);
    EXPECT_EQ(engine.system_row_mj(), reference_.system_mj);
    EXPECT_EQ(engine.true_total_mj(), reference_.total_mj);
  }

  /// Runs ticks until `n` replay in a row; false if 80 ticks do not.
  bool run_until_replaying(int n = 3) {
    int in_a_row = 0;
    for (int i = 0; i < 80 && in_a_row < n; ++i) {
      in_a_row = tick().replayed ? in_a_row + 1 : 0;
    }
    return in_a_row == n;
  }

  /// After a change: the first tick folds in full, and from then on a
  /// tick replays exactly when it and the two before it kept the slice
  /// with no window moving. Ends at the first replay.
  void expect_full_folds_then_replay() {
    int unchanged = 0;
    for (int i = 0; i < 40; ++i) {
      const Tick t = tick();
      if (i == 0) {
        EXPECT_FALSE(t.replayed) << "the change did not force a full fold";
      } else {
        unchanged = t.kept && !t.window_moved ? unchanged + 1 : 0;
        EXPECT_EQ(t.replayed, unchanged >= 3) << "tick " << i;
      }
      if (t.replayed) {
        expect_matches_reference();
        return;
      }
    }
    ADD_FAILURE() << "no replay within 40 ticks of the change";
  }

  apps::Testbed bed_;
  ReferenceSink reference_;
  std::uint64_t last_generation_ = 0;
};

TEST_F(FoldReplayTest, QuietChainReplaysFromItsThirdKeptTick) {
  open_chain();
  std::vector<Tick> ticks;
  for (int i = 0; i < 60; ++i) ticks.push_back(tick());

  // A fold is unchanged when its tick kept the slice and no window
  // opened or closed since the previous tick; it replays exactly when it
  // and the two folds before it are unchanged.
  auto unchanged = [&](std::size_t i) {
    return ticks[i].kept && !ticks[i].window_moved;
  };
  int replays = 0;
  for (std::size_t i = 3; i < ticks.size(); ++i) {
    const bool expect =
        unchanged(i) && unchanged(i - 1) && unchanged(i - 2);
    EXPECT_EQ(ticks[i].replayed, expect) << "tick " << i;
    replays += ticks[i].replayed;
  }
  EXPECT_GT(replays, 40);

  // The last change: the two kept ticks after it fold in full, the
  // third kept tick replays.
  std::size_t last = ticks.size() - 1;
  while (last > 0 && unchanged(last)) --last;
  ASSERT_LT(last + 3, ticks.size());
  EXPECT_FALSE(ticks[last + 1].replayed);
  EXPECT_FALSE(ticks[last + 2].replayed);
  EXPECT_TRUE(ticks[last + 3].replayed);

  // Replayed or not, each quiet tick charges the driver once: one mark
  // with the same nanojoules, one chained-gauge observation.
  for (std::size_t i = last + 1; i < ticks.size(); ++i) {
    EXPECT_EQ(ticks[i].collateral_marks, 1) << "tick " << i;
    EXPECT_EQ(ticks[i].collateral_arg, ticks[last + 1].collateral_arg);
    EXPECT_EQ(ticks[i].chained_observations, 1u) << "tick " << i;
  }
  EXPECT_GT(ticks.back().collateral_arg, 0);
  EXPECT_GT(bed_.pipeline().replay_adds(), 0u);
  expect_matches_reference();
}

TEST_F(FoldReplayTest, WindowOpeningForcesAFullFold) {
  bed_.server().user_launch(kDriver);
  ASSERT_TRUE(run_until_replaying());
  const std::uint64_t generation = bed_.eandroid()->tracker().generation();
  bed_.context_of(kDriver).start_activity(
      framework::Intent::explicit_for(kDriven, DemoApp::kRootActivity));
  ASSERT_NE(bed_.eandroid()->tracker().generation(), generation);
  expect_full_folds_then_replay();
}

TEST_F(FoldReplayTest, WindowClosingForcesAFullFold) {
  open_chain();
  ASSERT_TRUE(run_until_replaying());
  const std::uint64_t opened = bed_.eandroid()->tracker().closed_total();
  bed_.server().user_launch(kDriven);  // the user takes over: A->B ends
  ASSERT_GT(bed_.eandroid()->tracker().closed_total(), opened);
  expect_full_folds_then_replay();
}

TEST_F(FoldReplayTest, RebuiltSliceForcesAFullFold) {
  open_chain();
  ASSERT_TRUE(run_until_replaying());
  const std::uint64_t generation = bed_.eandroid()->tracker().generation();
  // A burst mid-window: the slice is rebuilt, no window moves.
  bed_.sim().run_for(sim::millis(100));
  bed_.server().cpu().charge_burst(
      bed_.server().ensure_process(bed_.uid_of(kDriven)), sim::millis(20));
  bed_.sim().run_for(sim::millis(150));
  expect_full_folds_then_replay();
  EXPECT_EQ(bed_.eandroid()->tracker().generation(), generation);
}

TEST_F(FoldReplayTest, ResetStatsMidRunForcesAFullFold) {
  open_chain();
  ASSERT_TRUE(run_until_replaying());
  expect_matches_reference();
  bed_.reset_stats();  // flushes, then clears every profiler
  reference_.reset();
  EXPECT_EQ(bed_.battery_stats().total_mj(), 0.0);
  expect_full_folds_then_replay();
  ASSERT_TRUE(run_until_replaying(20));
  expect_matches_reference();
  EXPECT_GT(bed_.eandroid()->engine().collateral_mj(bed_.uid_of(kDriver)),
            0.0);
}

TEST_F(FoldReplayTest, SkipPartSeamReachesAReplayedFold) {
  open_chain();
  ASSERT_TRUE(run_until_replaying());
  const kernelsim::Uid driven = bed_.uid_of(kDriven);
  const double engine_cpu =
      bed_.eandroid()->engine().direct_breakdown(driven)->cpu_mj;
  const double stats_before = bed_.battery_stats().app_energy_mj(driven);

  // Armed while replays run: a full fold, then replays again, and the
  // CPU column stops reaching the engine's store while BatteryStats
  // keeps counting it.
  MeteringPipeline::set_test_skip_part(0);
  const bool full_fold = !tick().replayed;
  const bool replaying = run_until_replaying(10);
  MeteringPipeline::set_test_skip_part(-1);
  EXPECT_TRUE(full_fold);
  ASSERT_TRUE(replaying);
  EXPECT_EQ(bed_.eandroid()->engine().direct_breakdown(driven)->cpu_mj,
            engine_cpu);
  EXPECT_GT(bed_.battery_stats().app_energy_mj(driven), stats_before);

  // Disarmed: a full fold again, then replays that charge the CPU.
  EXPECT_FALSE(tick().replayed);
  ASSERT_TRUE(run_until_replaying());
  EXPECT_GT(bed_.eandroid()->engine().direct_breakdown(driven)->cpu_mj,
            engine_cpu);
}

}  // namespace
}  // namespace eandroid::energy
