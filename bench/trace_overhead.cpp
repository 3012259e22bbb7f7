// Trace overhead: what does observability cost on the metering hot path?
//
// Three legs on the identical metering-dominated workload (the
// hotpath_profile scene: a dozen apps, two bound-service collateral
// windows, a partial wakelock, 50 ms sampling):
//
//   * off       — ObsOptions default: no TraceRecorder is materialised.
//                 Every instrumented seam pays one null-pointer branch;
//                 this is the configuration every other bench runs and
//                 the in-binary stand-in for -DEANDROID_TRACE=OFF, whose
//                 instruction stream differs only by that dead branch.
//   * idle      — recorder materialised but set_recording(false): the
//                 cost of carrying the switch.
//   * recording — every seam writes into the ring.
//
// After the recording leg, whose ring has wrapped and holds `capacity`
// events, an export leg times text_trace() and chrome_trace() on that
// ring (best of kExportReps) and reports ns/event and bytes for each.
// It has no gate.
//
// Self-gating (exit 1 on violation), mirroring hotpath_profile:
//   * recording throughput within 10% of off (the CI bench-smoke gate);
//   * zero steady-state allocations per tick while recording (counting
//     allocator, same method as hotpath_profile);
//   * bit-identical energy digests across all three legs — observability
//     must never move a result.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "apps/demo_app.h"
#include "apps/testbed.h"
#include "obs/export.h"
#include "obs/trace.h"

// --- Counting allocator: every global new/new[] bumps one counter. ---

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::uint64_t alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace eandroid;
using Clock = std::chrono::steady_clock;

constexpr int kLoadApps = 9;
constexpr int kVictims = 2;
constexpr std::int64_t kSampleMs = 50;
constexpr std::int64_t kWarmupS = 30;
constexpr std::int64_t kSteadyS = 60;
constexpr std::int64_t kTimedS = 14400;
constexpr int kReps = 3;
constexpr int kExportReps = 5;

enum class Leg { kOff, kIdle, kRecording };

/// One exporter timed on the recording leg's ring.
struct ExportResult {
  double ns_per_event = 0.0;
  std::size_t bytes = 0;
};

struct LegResult {
  double wall_s = 0.0;
  double sims_per_wall_s = 0.0;
  double allocs_per_tick = 0.0;
  double steady_allocs_per_tick = 0.0;
  std::uint64_t ticks = 0;
  std::uint64_t events_recorded = 0;
  std::string digest;
  /// Recording leg only: events held by the ring and both exports of it.
  std::size_t events_held = 0;
  ExportResult text;
  ExportResult chrome;
};

/// Best-of-kExportReps wall time of `exporter` over the ring, per event.
template <typename Exporter>
ExportResult time_export(const obs::TraceRecorder& rec, Exporter exporter) {
  ExportResult result;
  double best_s = 0.0;
  for (int rep = 0; rep < kExportReps; ++rep) {
    const auto start = Clock::now();
    const std::string bytes = exporter(rec);
    const double s = std::chrono::duration<double>(Clock::now() - start).count();
    if (rep == 0 || s < best_s) best_s = s;
    result.bytes = bytes.size();
  }
  result.ns_per_event = best_s * 1e9 / static_cast<double>(rec.size());
  return result;
}

LegResult run_leg(Leg leg) {
  apps::TestbedOptions options;
  options.seed = 1;
  options.sample_period = sim::millis(kSampleMs);
  options.obs.trace = leg != Leg::kOff;
  apps::Testbed bed(options);

  for (int i = 0; i < kVictims; ++i) {
    apps::DemoAppSpec spec;
    spec.package = "com.bench.victim" + std::to_string(i);
    spec.with_service = true;
    spec.service_cpu = 0.1;
    bed.install<apps::DemoApp>(spec);
  }
  apps::DemoAppSpec driver;
  driver.package = "com.bench.driver";
  driver.permissions = {framework::Permission::kWakeLock};
  bed.install<apps::DemoApp>(driver);
  for (int i = 0; i < kLoadApps; ++i) {
    apps::DemoAppSpec spec;
    spec.package = "com.bench.load" + std::to_string(i);
    bed.install<apps::DemoApp>(spec);
  }
  bed.start();

  framework::Context& driver_ctx = bed.context_of("com.bench.driver");
  driver_ctx.acquire_wakelock(framework::WakelockType::kPartial, "bench");
  for (int i = 0; i < kVictims; ++i) {
    driver_ctx.bind_service(framework::Intent::explicit_for(
        "com.bench.victim" + std::to_string(i), "WorkService"));
  }
  for (int i = 0; i < kLoadApps; ++i) {
    framework::Context& ctx =
        bed.context_of("com.bench.load" + std::to_string(i));
    ctx.set_cpu_load("render", 0.04 + 0.01 * (i % 3));
    ctx.set_cpu_load("net", 0.02);
    ctx.set_cpu_load("db", 0.01);
  }
  if (leg == Leg::kIdle) bed.server().obs().trace()->set_recording(false);

  bed.sim().run_for(sim::seconds(kWarmupS));

  LegResult result;
  energy::EnergySampler& sampler = bed.sampler();

  // Steady-state allocation probe (see hotpath_profile.cpp).
  const std::uint64_t steady_allocs0 = alloc_count();
  const std::uint64_t steady_ticks0 = sampler.slices_emitted();
  bed.sim().run_for(sim::seconds(kSteadyS));
  const std::uint64_t steady_ticks =
      sampler.slices_emitted() - steady_ticks0;
  result.steady_allocs_per_tick =
      static_cast<double>(alloc_count() - steady_allocs0) /
      static_cast<double>(steady_ticks);

  const std::uint64_t allocs0 = alloc_count();
  const std::uint64_t ticks0 = sampler.slices_emitted();
  const auto start = Clock::now();
  bed.sim().run_for(sim::seconds(kTimedS));
  result.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  result.ticks = sampler.slices_emitted() - ticks0;
  result.allocs_per_tick = static_cast<double>(alloc_count() - allocs0) /
                           static_cast<double>(result.ticks);
  result.sims_per_wall_s = static_cast<double>(kTimedS) / result.wall_s;

  bed.sampler().flush();
  if (const obs::TraceRecorder* rec = bed.server().obs().trace()) {
    result.events_recorded = rec->total_recorded();
    if (leg == Leg::kRecording) {
      result.events_held = rec->size();
      result.text = time_export(*rec, [](const obs::TraceRecorder& r) {
        return obs::text_trace(r);
      });
      result.chrome = time_export(*rec, [](const obs::TraceRecorder& r) {
        return obs::chrome_trace(r);
      });
    }
  }
  result.digest = bed.energy_digest();
  return result;
}

}  // namespace

namespace {

/// Interleaved best-of-N: the minimum wall time per leg is the least
/// noise-contaminated sample, and interleaving the legs spreads any
/// machine-load transient across all of them instead of biasing one.
void best_of_reps(LegResult results[3]) {
  bool have[3] = {false, false, false};
  for (int rep = 0; rep < kReps; ++rep) {
    for (Leg leg : {Leg::kOff, Leg::kIdle, Leg::kRecording}) {
      const int i = static_cast<int>(leg);
      LegResult r = run_leg(leg);
      if (have[i] && r.digest != results[i].digest) {
        std::printf("FAIL: leg digest varies across repetitions\n");
        std::exit(1);
      }
      if (!have[i] || r.wall_s < results[i].wall_s) {
        results[i] = std::move(r);
      }
      have[i] = true;
    }
  }
}

}  // namespace

int main() {
  std::printf("=== trace overhead: off vs idle vs recording, same workload "
              "===\n(12 apps, 2 service windows, %lld ms sampling, %lld "
              "simulated seconds timed per leg, best of %d interleaved "
              "reps)\n\n",
              static_cast<long long>(kSampleMs),
              static_cast<long long>(kTimedS), kReps);

  LegResult legs[3];
  best_of_reps(legs);
  const LegResult& off = legs[static_cast<int>(Leg::kOff)];
  const LegResult& idle = legs[static_cast<int>(Leg::kIdle)];
  const LegResult& recording = legs[static_cast<int>(Leg::kRecording)];

  const double recording_overhead =
      off.sims_per_wall_s / recording.sims_per_wall_s - 1.0;
  const double idle_overhead =
      off.sims_per_wall_s / idle.sims_per_wall_s - 1.0;
  const bool digests_match =
      off.digest == idle.digest && off.digest == recording.digest;
  const bool recording_alloc_free =
      recording.steady_allocs_per_tick == 0.0;
  const bool overhead_ok = recording_overhead < 0.10;

  std::printf("%10s %10s %16s %14s %14s %14s\n", "leg", "wall (s)",
              "sim-s / wall-s", "allocs/tick", "steady a/t", "events");
  for (const auto* r : {&off, &idle, &recording}) {
    std::printf("%10s %10.3f %16.0f %14.2f %14.2f %14llu\n",
                r == &off ? "off" : (r == &idle ? "idle" : "recording"),
                r->wall_s, r->sims_per_wall_s, r->allocs_per_tick,
                r->steady_allocs_per_tick,
                static_cast<unsigned long long>(r->events_recorded));
  }
  std::printf("\nrecording overhead: %+.1f%%   idle overhead: %+.1f%%   "
              "digests: %s   recording steady-state: %s\n",
              100.0 * recording_overhead, 100.0 * idle_overhead,
              digests_match ? "identical" : "DIVERGED",
              recording_alloc_free ? "allocation-free" : "ALLOCATES");
  std::printf("export of the recording leg's ring (%zu events, best of %d): "
              "text %.1f ns/event, %zu bytes; chrome %.1f ns/event, %zu "
              "bytes\n",
              recording.events_held, kExportReps,
              recording.text.ns_per_event, recording.text.bytes,
              recording.chrome.ns_per_event, recording.chrome.bytes);

  std::FILE* json = std::fopen("BENCH_trace.json", "w");
  if (json != nullptr) {
    auto leg = [json](const char* name, const LegResult& r) {
      std::fprintf(json,
                   "  \"%s\": {\"wall_s\": %.4f, \"sims_per_wall_s\": %.1f, "
                   "\"allocs_per_tick\": %.3f, "
                   "\"steady_allocs_per_tick\": %.3f, \"ticks\": %llu, "
                   "\"events_recorded\": %llu},\n",
                   name, r.wall_s, r.sims_per_wall_s, r.allocs_per_tick,
                   r.steady_allocs_per_tick,
                   static_cast<unsigned long long>(r.ticks),
                   static_cast<unsigned long long>(r.events_recorded));
    };
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"trace_overhead\",\n"
                 "  \"workload\": {\"apps\": %d, \"service_windows\": %d, "
                 "\"sample_period_ms\": %lld, \"timed_sim_seconds\": %lld},\n",
                 kLoadApps + kVictims + 1, kVictims,
                 static_cast<long long>(kSampleMs),
                 static_cast<long long>(kTimedS));
    leg("off", off);
    leg("idle", idle);
    leg("recording", recording);
    std::fprintf(json,
                 "  \"export\": {\"events\": %zu, \"text\": "
                 "{\"ns_per_event\": %.1f, \"bytes\": %zu}, \"chrome\": "
                 "{\"ns_per_event\": %.1f, \"bytes\": %zu}},\n",
                 recording.events_held, recording.text.ns_per_event,
                 recording.text.bytes, recording.chrome.ns_per_event,
                 recording.chrome.bytes);
    std::fprintf(json,
                 "  \"recording_overhead\": %.4f,\n"
                 "  \"idle_overhead\": %.4f,\n"
                 "  \"digest_match\": %s,\n"
                 "  \"recording_steady_state_allocation_free\": %s,\n"
                 "  \"recording_overhead_under_10pct\": %s\n"
                 "}\n",
                 recording_overhead, idle_overhead,
                 digests_match ? "true" : "false",
                 recording_alloc_free ? "true" : "false",
                 overhead_ok ? "true" : "false");
    std::fclose(json);
    std::printf("wrote BENCH_trace.json\n");
  }

  if (!digests_match) {
    std::printf("FAIL: tracing changed the energy digest\n");
    return 1;
  }
  if (!recording_alloc_free) {
    std::printf("FAIL: recording allocates in steady state\n");
    return 1;
  }
  if (!overhead_ok) {
    std::printf("FAIL: recording overhead %.1f%% exceeds the 10%% budget\n",
                100.0 * recording_overhead);
    return 1;
  }
  return 0;
}
