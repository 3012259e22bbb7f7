// Differential contracts for the observability layer:
//   * trace-derived energy re-summation — summing the nanojoule args of
//     the sampler's `energy.slice` trace events reproduces the battery's
//     consumed total within 1 mJ across 64 generated scenario programs,
//     fault ops included (the trace is an independent record the meters
//     can be validated against, in the spirit of arxiv 1701.07095);
//   * trace bytes and metrics snapshots are bitwise identical across
//     fleet worker counts {1, 4, 8} — observability output is a pure
//     function of the simulated history, never of how it was executed;
//   * tracing a generated program moves no bit of its energy digest or
//     recovery counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "apps/demo_app.h"
#include "fleet/aggregate.h"
#include "fleet/fleet.h"
#include "fuzz/executor.h"
#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "obs/export.h"

namespace eandroid::obs {
namespace {

using apps::DemoApp;
using apps::DemoAppSpec;

// --- Trace re-summation vs the battery's ground truth -------------------

struct ParsedTrace {
  std::uint64_t dropped = 0;
  double slice_sum_mj = 0.0;
};

/// Parses text_trace() output: the header's dropped count and the sum of
/// every `energy.slice` arg (nanojoules → mJ).
ParsedTrace parse_trace(const std::string& text) {
  ParsedTrace parsed;
  std::istringstream in(text);
  std::string line;
  std::int64_t slice_nj_sum = 0;
  while (std::getline(in, line)) {
    if (line.rfind("# trace", 0) == 0) {
      const std::size_t at = line.find("dropped=");
      if (at != std::string::npos) {
        parsed.dropped = std::strtoull(line.c_str() + at + 8, nullptr, 10);
      }
      continue;
    }
    if (line.find(" energy energy.slice ") == std::string::npos) continue;
    const std::size_t arg_at = line.find("arg=");
    EXPECT_NE(arg_at, std::string::npos) << line;
    if (arg_at == std::string::npos) continue;
    slice_nj_sum += std::strtoll(line.c_str() + arg_at + 4, nullptr, 10);
  }
  parsed.slice_sum_mj = static_cast<double>(slice_nj_sum) * 1e-6;
  return parsed;
}

struct ProgramRun {
  std::string digest;
  fuzz::RecoveryCounts recovery;
  double consumed_mj = 0.0;
  std::string trace_text;
};

/// Replays the generated 40-step program of `seed` on one device.
ProgramRun run_program(std::uint64_t seed, bool traced) {
  fleet::DeviceSpec spec;
  spec.seed = seed;
  if (traced) {
    spec.obs.trace = true;
    // Big enough that no program wraps the ring: a wrapped trace would
    // silently lose slices and the re-summation below with it.
    spec.obs.trace_capacity = 1u << 20;
  }
  fleet::DeviceContext bed(spec);
  fuzz::install_cast(bed);
  bed.start();
  fuzz::ProgramExecutor(
      bed, fuzz::generate({.seed = seed, .min_steps = 40, .max_steps = 40}))
      .run();
  return {bed.energy_digest(), fuzz::read_recovery(bed.server()),
          bed.server().battery().consumed_total_mj(), bed.trace_text()};
}

TEST(TraceResummationTest, SliceArgsReproduceBatteryTotalAcross64Seeds) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const ProgramRun run = run_program(seed, true);
    ASSERT_FALSE(run.trace_text.empty()) << "seed " << seed;
    const ParsedTrace parsed = parse_trace(run.trace_text);
    ASSERT_EQ(parsed.dropped, 0u)
        << "seed " << seed << ": ring wrapped; raise trace_capacity";
    // llround error is ≤ 0.5 nJ per slice — the 1 mJ budget is five
    // orders of magnitude of headroom even over thousands of slices.
    EXPECT_NEAR(parsed.slice_sum_mj, run.consumed_mj, 1.0) << "seed " << seed;
  }
}

TEST(TraceResummationTest, TracingMovesNoBitOfTheChaosDigest) {
  for (std::uint64_t seed : {3u, 17u, 42u}) {
    const ProgramRun plain = run_program(seed, false);
    const ProgramRun traced = run_program(seed, true);
    EXPECT_EQ(plain.digest, traced.digest) << "seed " << seed;
    EXPECT_EQ(plain.recovery, traced.recovery) << "seed " << seed;
    EXPECT_TRUE(plain.trace_text.empty());
    EXPECT_FALSE(traced.trace_text.empty());
  }
}

// --- Worker-count invariance ---------------------------------------------

/// The fleet_test campaign cast, traced.
std::shared_ptr<const fleet::InstallPlan> campaign_plan() {
  auto plan = std::make_shared<fleet::InstallPlan>();
  DemoAppSpec sender;
  sender.package = "com.fleet.weather";
  sender.foreground_cpu = 0.02;
  plan->add_app<DemoApp>(sender);
  DemoAppSpec victim;
  victim.package = "com.fleet.syncclient";
  victim.push_endpoint = true;
  plan->add_app<DemoApp>(victim);
  return plan;
}

struct FleetObsOutput {
  std::vector<std::string> traces;   // text_trace per device
  std::vector<std::string> metrics;  // metrics render per device
  std::string report_digest;         // includes the merged metrics table
};

FleetObsOutput run_traced_fleet(unsigned workers) {
  fleet::FleetOptions options;
  options.device_count = 12;
  options.workers = workers;
  options.install_plan = campaign_plan();
  options.epoch = sim::seconds(2);
  options.obs.trace = true;
  fleet::PushCampaign campaign;
  campaign.sender_package = "com.fleet.weather";
  campaign.target_package = "com.fleet.syncclient";
  campaign.start = sim::TimePoint{} + sim::seconds(2);
  campaign.period = sim::millis(750);
  campaign.pushes_per_device = 6;
  campaign.device_stagger = sim::millis(13);

  fleet::Fleet fleet(options);
  fleet.broker().add_campaign(campaign);
  fleet.start();
  fleet.run_for(sim::seconds(10));
  fleet.finish();

  FleetObsOutput out;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    out.traces.push_back(fleet.device(i).trace_text());
    out.metrics.push_back(fleet.device(i).metrics_snapshot().render());
  }
  out.report_digest = aggregate_fleet(fleet).digest();
  return out;
}

TEST(WorkerInvarianceTest, TraceBytesAndMetricsIdenticalAcrossWorkerCounts) {
  const FleetObsOutput one = run_traced_fleet(1);
  const FleetObsOutput four = run_traced_fleet(4);
  const FleetObsOutput eight = run_traced_fleet(8);
  ASSERT_EQ(one.traces.size(), 12u);
  EXPECT_FALSE(one.traces[0].empty());
  EXPECT_EQ(one.traces, four.traces);
  EXPECT_EQ(one.traces, eight.traces);
  EXPECT_EQ(one.metrics, four.metrics);
  EXPECT_EQ(one.metrics, eight.metrics);
  // The fleet report digest folds the merged metrics table, so this one
  // comparison covers the population-level render too.
  EXPECT_EQ(one.report_digest, four.report_digest);
  EXPECT_EQ(one.report_digest, eight.report_digest);
}

}  // namespace
}  // namespace eandroid::obs
