// Metering hot-path profile: ticks per wall second, allocations, and the
// tick's gather-vs-fold split on a metering-dominated workload.
//
// The workload is metering-dominated by design: a dozen apps with steady
// CPU loads and routine tags, two bound-service collateral windows for the
// engine's closure to walk, and a partial wakelock keeping the device
// awake — so virtually every simulated event is a sampler tick. That is
// exactly the regime long soaks and large sweeps live in, where per-tick
// cost gates throughput.
//
// One leg, written to BENCH_hotpath.json as "fused" (the allocation-free
// buffers plus the fused MeteringPipeline, the only metering path):
// sims-per-wall-second, ticks-per-wall-second, allocations per tick over
// the timed window, steady-state allocations per tick (must be exactly
// zero), and — from a separate stage-profiling window so clock reads
// never pollute the timed throughput — the tick's gather-vs-fold
// nanosecond split. The bench fails if the steady state allocates.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "apps/demo_app.h"
#include "apps/testbed.h"

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
/// Stage-profiling window: per-tick steady_clock reads are confined here
/// so the timed throughput window below stays clock-free.
constexpr std::int64_t kStageS = 1200;
constexpr std::int64_t kTimedS = 7200;

struct LegResult {
  double wall_s = 0.0;
  double sims_per_wall_s = 0.0;
  double ticks_per_s = 0.0;
  double allocs_per_tick = 0.0;
  double steady_allocs_per_tick = 0.0;
  double gather_ns_per_tick = 0.0;
  double fold_ns_per_tick = 0.0;
  std::uint64_t ticks = 0;
};

LegResult run_leg() {
  apps::TestbedOptions options;
  options.seed = 1;
  options.sample_period = sim::millis(kSampleMs);
  apps::Testbed bed(options);

  // Two victims with bindable services (collateral windows + service CPU)…
  for (int i = 0; i < kVictims; ++i) {
    apps::DemoAppSpec spec;
    spec.package = "com.bench.victim" + std::to_string(i);
    spec.with_service = true;
    spec.service_cpu = 0.1;
    bed.install<apps::DemoApp>(spec);
  }
  // …a driver that binds them and keeps the device awake…
  apps::DemoAppSpec driver;
  driver.package = "com.bench.driver";
  driver.permissions = {framework::Permission::kWakeLock};
  bed.install<apps::DemoApp>(driver);
  // …and a block of steady background loads with distinct routine tags.
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

  // Warm-up: the screen times out, dense structures reach final size,
  // every uid and routine tag is interned.
  bed.sim().run_for(sim::seconds(kWarmupS));

  LegResult result;
  energy::EnergySampler& sampler = bed.sampler();

  // Steady-state allocation probe: nothing but metering ticks happen in
  // this window, so every allocation is the metering path's.
  const std::uint64_t steady_allocs0 = alloc_count();
  const std::uint64_t steady_ticks0 = sampler.slices_emitted();
  bed.sim().run_for(sim::seconds(kSteadyS));
  const std::uint64_t steady_ticks =
      sampler.slices_emitted() - steady_ticks0;
  result.steady_allocs_per_tick =
      static_cast<double>(alloc_count() - steady_allocs0) /
      static_cast<double>(steady_ticks);

  // Stage-profiling window: split the tick into gather (+seal + battery
  // flow) vs fold (pipeline + sinks). Timing is enabled only here, so
  // the throughput window below never pays the clock reads.
  sampler.enable_stage_timing(true);
  bed.sim().run_for(sim::seconds(kStageS));
  sampler.enable_stage_timing(false);
  const energy::EnergySampler::StageNanos stages = sampler.stage_nanos();
  if (stages.ticks > 0) {
    result.gather_ns_per_tick = static_cast<double>(stages.gather_ns) /
                                static_cast<double>(stages.ticks);
    result.fold_ns_per_tick = static_cast<double>(stages.fold_ns) /
                              static_cast<double>(stages.ticks);
  }

  // Timed throughput window.
  const std::uint64_t allocs0 = alloc_count();
  const std::uint64_t ticks0 = sampler.slices_emitted();
  const auto start = Clock::now();
  bed.sim().run_for(sim::seconds(kTimedS));
  result.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  result.ticks = sampler.slices_emitted() - ticks0;
  result.allocs_per_tick = static_cast<double>(alloc_count() - allocs0) /
                           static_cast<double>(result.ticks);
  result.sims_per_wall_s = static_cast<double>(kTimedS) / result.wall_s;
  result.ticks_per_s = static_cast<double>(result.ticks) / result.wall_s;
  return result;
}

}  // namespace

int main() {
  std::printf("=== metering hot path ===\n(12 apps, 2 service windows, %lld "
              "ms sampling, %lld simulated seconds timed)\n\n",
              static_cast<long long>(kSampleMs),
              static_cast<long long>(kTimedS));

  const LegResult fused = run_leg();
  const bool alloc_free = fused.steady_allocs_per_tick == 0.0;

  std::printf("%10s %16s %14s %14s %12s %12s\n", "wall (s)",
              "sim-s / wall-s", "allocs/tick", "steady a/t", "gather ns/t",
              "fold ns/t");
  std::printf("%10.3f %16.0f %14.2f %14.2f %12.0f %12.0f\n", fused.wall_s,
              fused.sims_per_wall_s, fused.allocs_per_tick,
              fused.steady_allocs_per_tick, fused.gather_ns_per_tick,
              fused.fold_ns_per_tick);
  std::printf("\nsteady-state: %s\n",
              alloc_free ? "allocation-free" : "ALLOCATES");

  std::FILE* json = std::fopen("BENCH_hotpath.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"hotpath_profile\",\n"
                 "  \"workload\": {\"apps\": %d, \"service_windows\": %d, "
                 "\"sample_period_ms\": %lld, \"timed_sim_seconds\": %lld},\n"
                 "  \"fused\": {\"wall_s\": %.4f, \"sims_per_wall_s\": %.1f, "
                 "\"allocs_per_tick\": %.3f, "
                 "\"steady_allocs_per_tick\": %.3f, \"ticks\": %llu, "
                 "\"gather_ns_per_tick\": %.1f, "
                 "\"fold_ns_per_tick\": %.1f, \"fused_ticks_per_s\": %.1f},\n"
                 "  \"fused_steady_state_allocation_free\": %s\n"
                 "}\n",
                 kLoadApps + kVictims + 1, kVictims,
                 static_cast<long long>(kSampleMs),
                 static_cast<long long>(kTimedS), fused.wall_s,
                 fused.sims_per_wall_s, fused.allocs_per_tick,
                 fused.steady_allocs_per_tick,
                 static_cast<unsigned long long>(fused.ticks),
                 fused.gather_ns_per_tick, fused.fold_ns_per_tick,
                 fused.ticks_per_s, alloc_free ? "true" : "false");
    std::fclose(json);
    std::printf("wrote BENCH_hotpath.json\n");
  }

  if (!alloc_free) {
    std::printf("FAIL: the metering path allocates in steady state\n");
    return 1;
  }
  return 0;
}
