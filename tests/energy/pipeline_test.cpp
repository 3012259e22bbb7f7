// MeteringPipeline unit suite (the `metering` ctest label): fold order,
// stage bracketing, the touched-view cell addressing, the active-list
// folds against the slice's sums, and external sinks on a live testbed.
// These pin the pipeline's contracts at the component level, where a
// violation has a short, debuggable witness.

#include "energy/pipeline.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/demo_app.h"
#include "apps/testbed.h"
#include "energy/battery_stats.h"
#include "energy/power_tutor.h"
#include "energy/timeline.h"
#include "framework/package_manager.h"

namespace eandroid::energy {
namespace {

using apps::DemoApp;
using apps::Testbed;

kernelsim::Uid uid(std::int32_t v) { return kernelsim::Uid{v}; }

/// Builds a sealed standalone slice with a deterministic cell pattern:
/// three apps, staggered parts, two routine tags on the first app.
EnergySlice make_slice() {
  EnergySlice slice;
  const kernelsim::AppIdx a = slice.ids().app_of(uid(10001));
  const kernelsim::AppIdx b = slice.ids().app_of(uid(10002));
  const kernelsim::AppIdx c = slice.ids().app_of(uid(10003));
  const kernelsim::RoutineIdx render = slice.ids().routine_of("render");
  const kernelsim::RoutineIdx net = slice.ids().routine_of("net");
  slice.system_mj = 3.25;
  slice.screen_mj = 40.5;
  // Touch out of ascending order on purpose — seal() canonicalizes.
  slice.part_at(c, HwPart::kGps) += 0.75;
  slice.part_at(a, HwPart::kCpu) += 12.5;
  slice.part_at(a, HwPart::kWifi) += 1.125;
  slice.part_at(b, HwPart::kCamera) += 30.0;
  slice.part_at(b, HwPart::kAudio) += 2.5;
  slice.add_routine_at(a, net, 4.5);
  slice.add_routine_at(a, render, 8.0);
  slice.seal();
  return slice;
}

TEST(MeteringPipelineTest, TouchedViewAddressesTheSameCells) {
  const EnergySlice slice = make_slice();
  const EnergySlice::TouchedView view = slice.touched_view();
  ASSERT_EQ(view.active, &slice.active());
  for (const kernelsim::AppIdx idx : *view.active) {
    EXPECT_EQ(view.parts[0][idx], slice.cpu_mj(idx));
    EXPECT_EQ(view.parts[1][idx], slice.camera_mj(idx));
    EXPECT_EQ(view.parts[2][idx], slice.gps_mj(idx));
    EXPECT_EQ(view.parts[3][idx], slice.wifi_mj(idx));
    EXPECT_EQ(view.parts[4][idx], slice.audio_mj(idx));
  }
}

/// Stage stub that records when it ran relative to the fused cell pass,
/// using the direct store's ground-truth sum as the witness.
struct RecordingStage : SliceFoldStage {
  const DirectStore* store = nullptr;
  std::vector<std::string> events;
  double total_at_prepare = -1.0;
  double total_at_fold = -1.0;

  bool prepare_slice(const EnergySlice&) override {
    events.push_back("prepare");
    total_at_prepare = store->true_total_mj;
    return true;
  }
  void fold_slice(const EnergySlice&, FoldTape*) override {
    events.push_back("fold");
    total_at_fold = store->true_total_mj;
  }
};

TEST(MeteringPipelineTest, StagesBracketTheCellPass) {
  const EnergySlice slice = make_slice();
  DirectStore store;
  RecordingStage stage;
  stage.store = &store;
  MeteringPipeline pipeline;
  pipeline.set_engine(&store, &stage);
  pipeline.run(slice);

  ASSERT_EQ(stage.events, (std::vector<std::string>{"prepare", "fold"}));
  // prepare_slice ran before any cell was folded; fold_slice after all.
  EXPECT_EQ(stage.total_at_prepare, 0.0);
  EXPECT_EQ(stage.total_at_fold, slice.total_mj());
  EXPECT_EQ(pipeline.slices_folded(), 1u);
  EXPECT_EQ(pipeline.cells_folded(), slice.active().size());
}

TEST(MeteringPipelineTest, DirectStoreFoldIsBitIdenticalToTotalMj) {
  const EnergySlice slice = make_slice();
  DirectStore store;
  RecordingStage stage;
  stage.store = &store;
  MeteringPipeline pipeline;
  pipeline.set_engine(&store, &stage);
  pipeline.run(slice);
  pipeline.run(slice);  // accumulation across slices

  // EXACT equality: the pipeline must reproduce total_mj()'s association
  // (system+screen seed, then apps ascending) and the canonical part
  // order per cell — not merely be numerically close.
  EXPECT_EQ(store.true_total_mj, slice.total_mj() + slice.total_mj());
  const kernelsim::AppIdx a = slice.ids().find_app(uid(10001));
  ASSERT_LT(a, store.by_app.size());
  EXPECT_EQ(store.by_app[a].cpu_mj, slice.cpu_mj(a) + slice.cpu_mj(a));
  EXPECT_EQ(store.by_app[a].wifi_mj, slice.wifi_mj(a) + slice.wifi_mj(a));
  const kernelsim::RoutineIdx render = slice.ids().find_routine("render");
  EXPECT_EQ(store.by_app[a].routine_mj_of(render),
            slice.routine_mj_at(a, render) + slice.routine_mj_at(a, render));
  // Untouched app rows exist (dense) but hold zero.
  const kernelsim::AppIdx b = slice.ids().find_app(uid(10002));
  EXPECT_EQ(store.by_app[b].cpu_mj, 0.0);
  EXPECT_EQ(store.by_app[b].camera_mj,
            slice.camera_mj(b) + slice.camera_mj(b));
}

TEST(MeteringPipelineTest, ActiveListFoldsMatchSliceSums) {
  // BatteryStats and PowerTutor fold only the active apps. The result
  // must be EXACTLY the slice's per-app sums, in sum_at()'s part-order
  // association, accumulated slice by slice.
  const EnergySlice slice = make_slice();
  framework::PackageManager packages;
  BatteryStats bs(packages);
  PowerTutor pt(packages);
  MeteringPipeline pipeline;
  pipeline.set_battery_stats(&bs);
  pipeline.set_power_tutor(&pt);
  pipeline.run(slice);
  pipeline.run(slice);  // accumulation across slices

  double app_total = 0.0;
  for (const kernelsim::AppIdx idx : slice.active()) {
    const kernelsim::Uid u = slice.uid_at(idx);
    const double twice = slice.sum_at(idx) + slice.sum_at(idx);
    app_total += twice;
    EXPECT_EQ(bs.app_energy_mj(u), twice);
    EXPECT_EQ(pt.app_energy_mj(u), twice);
    EXPECT_EQ(pt.component_energy_mj(u, HwPart::kCpu),
              slice.cpu_mj(idx) + slice.cpu_mj(idx));
    EXPECT_EQ(pt.component_energy_mj(u, HwPart::kCamera),
              slice.camera_mj(idx) + slice.camera_mj(idx));
    EXPECT_EQ(pt.component_energy_mj(u, HwPart::kGps),
              slice.gps_mj(idx) + slice.gps_mj(idx));
    EXPECT_EQ(pt.component_energy_mj(u, HwPart::kWifi),
              slice.wifi_mj(idx) + slice.wifi_mj(idx));
    EXPECT_EQ(pt.component_energy_mj(u, HwPart::kAudio),
              slice.audio_mj(idx) + slice.audio_mj(idx));
  }
  // Screen stays its own row in BatteryStats; no foreground app, so
  // PowerTutor keeps it unattributed too.
  EXPECT_DOUBLE_EQ(bs.total_mj(), app_total + 2 * (slice.screen_mj +
                                                   slice.system_mj));
  EXPECT_DOUBLE_EQ(pt.total_mj(), bs.total_mj());
}

/// Stage stub whose window state the test moves by hand.
struct SettledStage : SliceFoldStage {
  bool settled = true;
  int folds = 0;
  bool prepare_slice(const EnergySlice&) override { return settled; }
  void fold_slice(const EnergySlice&, FoldTape*) override { ++folds; }
};

TEST(MeteringPipelineTest, ReplayNeedsThreeUnchangedFoldsAndMatchesFullFolds) {
  const EnergySlice slice = make_slice();
  framework::PackageManager packages;
  // `replaying` is told the slice is kept; `full` folds every run.
  struct Profilers {
    explicit Profilers(const framework::PackageManager& p) : bs(p), pt(p) {
      pipeline.set_battery_stats(&bs);
      pipeline.set_power_tutor(&pt);
      pipeline.set_engine(&store, &stage);
    }
    BatteryStats bs;
    PowerTutor pt;
    DirectStore store;
    SettledStage stage;
    MeteringPipeline pipeline;
  };
  Profilers replaying(packages);
  Profilers full(packages);
  auto run = [&](bool kept) {
    replaying.pipeline.run(slice, kept);
    full.pipeline.run(slice);
  };
  auto replays = [&] { return replaying.pipeline.folds_replayed(); };

  run(false);  // a new slice: full fold
  run(true);   // first unchanged fold: full
  run(true);   // second: full, and recorded
  EXPECT_EQ(replays(), 0u);
  EXPECT_EQ(replaying.stage.folds, 3);
  run(true);
  run(true);
  EXPECT_EQ(replays(), 2u);
  EXPECT_EQ(replaying.stage.folds, 3);
  EXPECT_GT(replaying.pipeline.replay_adds(), 0u);

  // Each change costs three full folds before replay resumes.
  const auto change_then_three = [&](auto&& change, auto&& undo) {
    const std::uint64_t before = replays();
    change();
    run(true);
    undo();
    run(true);
    run(true);
    EXPECT_EQ(replays(), before);
    run(true);
    EXPECT_EQ(replays(), before + 1);
  };
  change_then_three([&] { replaying.stage.settled = false; },
                    [&] { replaying.stage.settled = true; });
  change_then_three(
      [&] {
        replaying.bs.reset();
        full.bs.reset();
      },
      [] {});
  change_then_three(
      [&] {
        replaying.pt.reset();
        full.pt.reset();
      },
      [] {});
  change_then_three([] { MeteringPipeline::set_test_skip_part(1); },
                    [] {});
  change_then_three([] { MeteringPipeline::set_test_skip_part(-1); },
                    [] {});
  EXPECT_EQ(replaying.pipeline.slices_folded(),
            full.pipeline.slices_folded());
  EXPECT_EQ(replaying.pipeline.cells_folded(), full.pipeline.cells_folded());

  // Bit for bit what folding every run gives.
  EXPECT_EQ(replaying.bs.total_mj(), full.bs.total_mj());
  EXPECT_EQ(replaying.pt.total_mj(), full.pt.total_mj());
  EXPECT_EQ(replaying.store.true_total_mj, full.store.true_total_mj);
  for (const kernelsim::AppIdx idx : slice.active()) {
    const kernelsim::Uid u = slice.uid_at(idx);
    EXPECT_EQ(replaying.bs.app_energy_mj(u), full.bs.app_energy_mj(u));
    for (const HwPart part : {HwPart::kCpu, HwPart::kCamera, HwPart::kGps,
                              HwPart::kWifi, HwPart::kAudio}) {
      EXPECT_EQ(replaying.pt.component_energy_mj(u, part),
                full.pt.component_energy_mj(u, part));
    }
    const AppSliceEnergy& r = replaying.store.by_app[idx];
    const AppSliceEnergy& f = full.store.by_app[idx];
    EXPECT_EQ(r.cpu_mj, f.cpu_mj);
    EXPECT_EQ(r.camera_mj, f.camera_mj);
    EXPECT_EQ(r.gps_mj, f.gps_mj);
    EXPECT_EQ(r.wifi_mj, f.wifi_mj);
    EXPECT_EQ(r.audio_mj, f.audio_mj);
    EXPECT_EQ(r.routine_mj, f.routine_mj);
    EXPECT_EQ(r.routines, f.routines);
  }
}

TEST(MeteringPipelineTest, UnfusedSinksStillRunAfterThePipeline) {
  // A sink registered via add_sink (here: the timeline recorder) must see
  // every slice the pipeline folds, and see it whole.
  Testbed bed({.seed = 11});
  apps::DemoAppSpec victim = apps::victim_spec();
  victim.package = "com.pipeline.victim";
  bed.install<DemoApp>(victim);
  TimelineRecorder timeline(bed.server().packages());
  bed.sampler().add_sink(&timeline);
  bed.start();
  bed.server().user_launch("com.pipeline.victim");
  bed.run_for(sim::seconds(10));

  const auto& rows = timeline.rows();
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows.size(), bed.pipeline().slices_folded());
  double total = 0.0;
  for (const auto& row : rows) total += row.total_mj;
  EXPECT_NEAR(total, bed.battery_stats().total_mj(), 1e-6);
}

TEST(MeteringPipelineTest, PipelineCountsSlicesAndCells) {
  Testbed bed({.seed = 3});
  apps::DemoAppSpec victim = apps::victim_spec();
  victim.package = "com.pipeline.victim";
  bed.install<DemoApp>(victim);
  bed.start();
  bed.server().user_launch("com.pipeline.victim");
  bed.run_for(sim::seconds(5));

  EXPECT_EQ(bed.pipeline().slices_folded(), bed.sampler().slices_emitted());
  EXPECT_GT(bed.pipeline().cells_folded(), 0u);

  const obs::MetricsSnapshot snap = bed.metrics_snapshot();
  const obs::MetricRow* folds = snap.find("energy.pipeline.folds");
  ASSERT_NE(folds, nullptr);
  EXPECT_EQ(folds->count, bed.pipeline().slices_folded());
  const obs::MetricRow* cells = snap.find("energy.pipeline.fused_cells");
  ASSERT_NE(cells, nullptr);
  EXPECT_EQ(cells->count, bed.pipeline().cells_folded());
}

}  // namespace
}  // namespace eandroid::energy
