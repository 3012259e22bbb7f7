// Unit contracts for the observability layer (src/obs/):
//   * TraceRecorder ring semantics — overwrite, dropped accounting,
//     intern stability, clear, the recording master switch;
//   * MetricsRegistry — counter/gauge registration idempotence, hot-path
//     bounds safety, name-sorted snapshots, snapshot merge algebra,
//     render determinism;
//   * exporters — the text form's exact line grammar and the Chrome
//     trace_event JSON's track layout;
//   * the end-to-end knob — a traced Testbed produces events from every
//     instrumented layer, and enabling tracing moves no bit of the
//     energy digest.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/demo_app.h"
#include "apps/testbed.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace eandroid::obs {
namespace {

TEST(TraceRecorderTest, RecordsInOrderBelowCapacity) {
  TraceRecorder rec(8);
  const NameIdx tick = rec.intern("tick");
  for (int i = 0; i < 5; ++i) {
    rec.record(TraceCategory::kSim, tick, /*uid=*/-1, /*arg=*/i,
               /*t_us=*/i * 10);
  }
  EXPECT_EQ(rec.size(), 5u);
  EXPECT_EQ(rec.total_recorded(), 5u);
  EXPECT_EQ(rec.dropped(), 0u);
  std::vector<std::int64_t> args;
  rec.for_each([&](const TraceEvent& ev) { args.push_back(ev.arg); });
  EXPECT_EQ(args, (std::vector<std::int64_t>{0, 1, 2, 3, 4}));
}

TEST(TraceRecorderTest, RingOverwritesOldestAndCountsDropped) {
  TraceRecorder rec(4);
  const NameIdx tick = rec.intern("tick");
  for (int i = 0; i < 10; ++i) {
    rec.record(TraceCategory::kSim, tick, -1, i, i);
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.total_recorded(), 10u);
  EXPECT_EQ(rec.dropped(), 6u);
  std::vector<std::int64_t> args;
  rec.for_each([&](const TraceEvent& ev) { args.push_back(ev.arg); });
  // The newest four, oldest first.
  EXPECT_EQ(args, (std::vector<std::int64_t>{6, 7, 8, 9}));
}

TEST(TraceRecorderTest, ZeroCapacityIsClampedToOne) {
  TraceRecorder rec(0);
  EXPECT_EQ(rec.capacity(), 1u);
  rec.record_lit(TraceCategory::kSim, "a", -1, 1, 1);
  rec.record_lit(TraceCategory::kSim, "b", -1, 2, 2);
  EXPECT_EQ(rec.size(), 1u);
  EXPECT_EQ(rec.dropped(), 1u);
}

TEST(TraceRecorderTest, InternIsStableAndClearKeepsNames) {
  TraceRecorder rec(4);
  const NameIdx a = rec.intern("alpha");
  const NameIdx b = rec.intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(rec.intern("alpha"), a);  // idempotent
  rec.record(TraceCategory::kPower, a, 7, 0, 1);
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.total_recorded(), 0u);
  // Cached indices stay valid across clear().
  EXPECT_EQ(rec.intern("alpha"), a);
  EXPECT_EQ(rec.names().routine_name(b), "beta");
}

TEST(TraceRecorderTest, RecordingSwitchGatesBothRecordPaths) {
  TraceRecorder rec(4);
  const NameIdx tick = rec.intern("tick");
  rec.set_recording(false);
  rec.record(TraceCategory::kSim, tick, -1, 1, 1);
  rec.record_lit(TraceCategory::kSim, "other", -1, 2, 2);
  EXPECT_EQ(rec.total_recorded(), 0u);
  rec.set_recording(true);
  rec.record(TraceCategory::kSim, tick, -1, 3, 3);
  EXPECT_EQ(rec.total_recorded(), 1u);
}

// The ring is left unwritten until a slot is recorded, so for_each must
// read only the slots written since construction or the last clear().
std::vector<std::int64_t> held_args(const TraceRecorder& rec) {
  std::vector<std::int64_t> args;
  rec.for_each([&](const TraceEvent& ev) { args.push_back(ev.arg); });
  return args;
}

void record_args(TraceRecorder& rec, std::int64_t first, std::int64_t last) {
  const NameIdx tick = rec.intern("tick");
  for (std::int64_t a = first; a <= last; ++a) {
    rec.record(TraceCategory::kSim, tick, -1, a, a);
  }
}

TEST(TraceRecorderTest, HugeRingHoldingAHandfulReadsOnlyThoseSlots) {
  TraceRecorder rec(1u << 20);
  EXPECT_EQ(rec.capacity(), 1u << 20);
  EXPECT_TRUE(held_args(rec).empty());
  record_args(rec, 1, 5);
  EXPECT_EQ(rec.size(), 5u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(held_args(rec), (std::vector<std::int64_t>{1, 2, 3, 4, 5}));
}

TEST(TraceRecorderTest, ClearMidFirstLapThenRecordPastPreClearCount) {
  TraceRecorder rec(16);
  record_args(rec, 0, 9);
  EXPECT_EQ(rec.size(), 10u);
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_TRUE(held_args(rec).empty());
  record_args(rec, 100, 102);
  EXPECT_EQ(rec.size(), 3u);
  EXPECT_EQ(held_args(rec), (std::vector<std::int64_t>{100, 101, 102}));
  record_args(rec, 103, 111);  // past the 10 slots written before clear()
  EXPECT_EQ(rec.size(), 12u);
  EXPECT_EQ(rec.dropped(), 0u);
  std::vector<std::int64_t> want;
  for (std::int64_t a = 100; a <= 111; ++a) want.push_back(a);
  EXPECT_EQ(held_args(rec), want);
  record_args(rec, 112, 120);  // and on into the wrap
  EXPECT_EQ(rec.size(), 16u);
  EXPECT_EQ(rec.dropped(), 5u);
  want.clear();
  for (std::int64_t a = 105; a <= 120; ++a) want.push_back(a);
  EXPECT_EQ(held_args(rec), want);
}

TEST(TraceRecorderTest, WrapThenClearThenFewerThanCapacity) {
  TraceRecorder rec(8);
  record_args(rec, 0, 19);
  EXPECT_EQ(rec.size(), 8u);
  EXPECT_EQ(rec.dropped(), 12u);
  EXPECT_EQ(held_args(rec),
            (std::vector<std::int64_t>{12, 13, 14, 15, 16, 17, 18, 19}));
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_TRUE(held_args(rec).empty());
  record_args(rec, 50, 52);
  EXPECT_EQ(rec.size(), 3u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(held_args(rec), (std::vector<std::int64_t>{50, 51, 52}));
}

TEST(TraceCategoryTest, EveryCategoryHasAName) {
  for (int i = 0; i < kTraceCategoryCount; ++i) {
    EXPECT_STRNE(to_string(static_cast<TraceCategory>(i)), "?");
  }
}

TEST(MetricsRegistryTest, CountersAndGauges) {
  MetricsRegistry reg;
  const MetricId hits = reg.counter("hits");
  const MetricId mj = reg.gauge("mj");
  EXPECT_EQ(reg.counter("hits"), hits);  // idempotent per name
  reg.add(hits);
  reg.add(hits, 4);
  reg.observe(mj, 2.0);
  reg.observe(mj, -1.0);
  reg.observe(mj, 0.5);
  EXPECT_EQ(reg.count(hits), 5u);
  EXPECT_EQ(reg.counter_value("hits"), 5u);
  EXPECT_EQ(reg.counter_value("never_registered"), 0u);

  const MetricsSnapshot snap = reg.snapshot();
  const MetricRow* row = snap.find("mj");
  ASSERT_NE(row, nullptr);
  EXPECT_FALSE(row->is_counter);
  EXPECT_EQ(row->count, 3u);
  EXPECT_DOUBLE_EQ(row->sum, 1.5);
  EXPECT_DOUBLE_EQ(row->min, -1.0);
  EXPECT_DOUBLE_EQ(row->max, 2.0);
}

TEST(MetricsRegistryTest, ForeignIdsAreDroppedNotCorrupting) {
  // An id minted by a different registry must degrade to a no-op, never
  // an out-of-bounds write (the subsystem-outlives-server hazard).
  MetricsRegistry reg;
  reg.add(MetricId{12345});
  reg.observe(MetricId{12345}, 1.0);
  EXPECT_EQ(reg.count(MetricId{12345}), 0u);
  EXPECT_EQ(reg.size(), 0u);
}

TEST(MetricsSnapshotTest, RowsAreNameSortedRegardlessOfRegistration) {
  MetricsRegistry a;
  a.add(a.counter("zebra"));
  a.add(a.counter("apple"));
  MetricsRegistry b;
  b.add(b.counter("apple"));
  b.add(b.counter("zebra"));
  EXPECT_EQ(a.snapshot().render(), b.snapshot().render());
  const MetricsSnapshot snap = a.snapshot();
  ASSERT_EQ(snap.rows.size(), 2u);
  EXPECT_EQ(snap.rows[0].name, "apple");
  EXPECT_EQ(snap.rows[1].name, "zebra");
}

TEST(MetricsSnapshotTest, MergeAddsCountersAndFoldsGauges) {
  MetricsRegistry a;
  a.add(a.counter("shared"), 2);
  a.add(a.counter("only_a"), 1);
  a.observe(a.gauge("g"), 1.0);
  MetricsRegistry b;
  b.add(b.counter("shared"), 3);
  b.add(b.counter("only_b"), 7);
  b.observe(b.gauge("g"), 5.0);
  b.observe(b.gauge("g"), -2.0);

  MetricsSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.find("shared")->count, 5u);
  EXPECT_EQ(merged.find("only_a")->count, 1u);
  EXPECT_EQ(merged.find("only_b")->count, 7u);
  const MetricRow* g = merged.find("g");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->count, 3u);
  EXPECT_DOUBLE_EQ(g->sum, 4.0);
  EXPECT_DOUBLE_EQ(g->min, -2.0);
  EXPECT_DOUBLE_EQ(g->max, 5.0);
  // Merge result stays sorted, so it can be merged again.
  for (std::size_t i = 1; i < merged.rows.size(); ++i) {
    EXPECT_LT(merged.rows[i - 1].name, merged.rows[i].name);
  }
}

TEST(MetricsSnapshotTest, UnobservedGaugeRendersAsEmpty) {
  MetricsRegistry reg;
  (void)reg.gauge("idle");
  EXPECT_EQ(reg.snapshot().render(), "idle gauge n=0\n");
}

TEST(ObservabilityTest, TraceIsNullUnlessRequested) {
  Observability off{ObsOptions{}};
  EXPECT_EQ(off.trace(), nullptr);
  Observability on{ObsOptions{.trace = true, .trace_capacity = 32}};
  ASSERT_NE(on.trace(), nullptr);
  EXPECT_EQ(on.trace()->capacity(), 32u);
}

TEST(ExportTest, TextTraceLineGrammar) {
  TraceRecorder rec(8);
  rec.record_lit(TraceCategory::kPower, "wakelock.acquire", 10007, 1, 1500);
  rec.record_lit(TraceCategory::kEnergy, "energy.slice", -1, 42, 250000);
  EXPECT_EQ(text_trace(rec),
            "# trace events=2 dropped=0\n"
            "@1500 power wakelock.acquire uid=10007 arg=1\n"
            "@250000 energy energy.slice uid=-1 arg=42\n");
}

TEST(ExportTest, TextTraceReportsDroppedPrefix) {
  TraceRecorder rec(2);
  for (int i = 0; i < 5; ++i) {
    rec.record_lit(TraceCategory::kSim, "tick", -1, i, i);
  }
  const std::string text = text_trace(rec);
  EXPECT_NE(text.find("# trace events=2 dropped=3\n"), std::string::npos);
  EXPECT_NE(text.find("@3 sim tick uid=-1 arg=3\n"), std::string::npos);
  EXPECT_EQ(text.find("arg=1\n"), std::string::npos);  // overwritten
}

TEST(ExportTest, ChromeTraceHasOneTrackPerUidPlusSystem) {
  TraceRecorder rec(8);
  rec.record_lit(TraceCategory::kSim, "dispatch", -1, 0, 10);
  rec.record_lit(TraceCategory::kBinder, "binder.txn", 10007, 64, 20);
  rec.record_lit(TraceCategory::kBinder, "binder.txn", 10008, 64, 30);
  const std::string json = chrome_trace(rec, /*pid=*/3);
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_EQ(json.rfind("]}"), json.size() - 2);
  // Metadata names the system track and one track per uid.
  EXPECT_NE(json.find("\"thread_name\",\"args\":{\"name\":\"system\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"thread_name\",\"args\":{\"name\":\"uid 10007\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"thread_name\",\"args\":{\"name\":\"uid 10008\"}"),
            std::string::npos);
  // Instant events carry the device pid and the virtual-time ts.
  EXPECT_NE(json.find("\"ph\":\"i\",\"s\":\"t\",\"pid\":3,\"tid\":10007,"
                      "\"ts\":20"),
            std::string::npos);
}

TEST(ExportTest, ChromeTraceEscapesNames) {
  TraceRecorder rec(2);
  rec.record_lit(TraceCategory::kSim, "quote\"back\\slash", -1, 0, 0);
  const std::string json = chrome_trace(rec);
  EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos);
}

// --- End-to-end: the ObsOptions knob on a real device ---

apps::TestbedOptions traced_options(std::uint64_t seed) {
  apps::TestbedOptions options;
  options.seed = seed;
  options.obs.trace = true;
  options.obs.trace_capacity = 1u << 18;
  return options;
}

std::string drive_session(apps::Testbed& bed) {
  apps::DemoAppSpec victim = apps::victim_spec();
  bed.install<apps::DemoApp>(victim);
  bed.start();
  bed.server().user_launch(victim.package);
  // A service start goes through the kernel binder (txn trace + metric).
  bed.context_of(victim.package)
      .start_service(framework::Intent::explicit_for(
          victim.package, apps::DemoApp::kService));
  bed.run_for(sim::seconds(10));
  bed.server().user_press_home();
  bed.run_for(sim::seconds(20));
  return bed.energy_digest();
}

TEST(ObsIntegrationTest, TracedDeviceCoversEveryInstrumentedLayer) {
  apps::Testbed bed(traced_options(11));
  drive_session(bed);
  const TraceRecorder* rec = bed.server().obs().trace();
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->dropped(), 0u);
  bool saw[kTraceCategoryCount] = {};
  rec->for_each([&](const TraceEvent& ev) {
    saw[static_cast<int>(ev.category)] = true;
  });
  EXPECT_TRUE(saw[static_cast<int>(TraceCategory::kSim)]);
  EXPECT_TRUE(saw[static_cast<int>(TraceCategory::kLifecycle)]);
  EXPECT_TRUE(saw[static_cast<int>(TraceCategory::kPower)]);
  EXPECT_TRUE(saw[static_cast<int>(TraceCategory::kEnergy)]);

  const MetricsRegistry& metrics = bed.server().obs().metrics();
  EXPECT_GT(metrics.counter_value("sim.events_dispatched"), 0u);
  EXPECT_GT(metrics.counter_value("fw.bus_events"), 0u);
  EXPECT_GT(metrics.counter_value("energy.slices"), 0u);
  EXPECT_GT(metrics.counter_value("binder.txns"), 0u);
}

TEST(ObsIntegrationTest, EnablingTracingMovesNoBitOfTheDigest) {
  apps::Testbed plain((apps::TestbedOptions{.seed = 11}));
  apps::Testbed traced(traced_options(11));
  EXPECT_EQ(drive_session(plain), drive_session(traced));
}

TEST(ObsIntegrationTest, MetricsCountMatchesSimulatorGroundTruth) {
  apps::Testbed bed(traced_options(5));
  drive_session(bed);
  EXPECT_EQ(
      bed.server().obs().metrics().counter_value("sim.events_dispatched"),
      bed.sim().events_dispatched());
  EXPECT_EQ(bed.server().obs().metrics().counter_value("energy.slices"),
            bed.sampler().slices_emitted());
}

}  // namespace
}  // namespace eandroid::obs
