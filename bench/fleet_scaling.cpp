// Fleet scaling profile: simulation throughput vs fleet size, plus the
// shared-immutable-config memory story.
//
// Sections, written to BENCH_fleet.json:
//
//   * memory — live heap bytes per device right after construction, for
//     two construction legs of the same 64-device fleet: the fleet path
//     (ONE PowerParams / Manifest set / EngineConfig aliased by every
//     device) vs the pre-refactor shape (every device owns private
//     copies). The delta is exactly what the shared_ptr<const> plumbing
//     buys at population scale.
//
//   * scaling — device-simulated-seconds per wall second for fleets of
//     8/32/128/1024 devices running a continuous push-campaign workload.
//     Each row's simulated horizon is scaled so the timed region stays
//     >= 0.5 s of wall time, and every row is best-of-N (N = 5 below 128
//     devices, where scheduler jitter dominates short rows; 3 above) —
//     the committed numbers are stable enough to gate a >15% CI
//     regression. Every row also reports steady-state heap allocations
//     per device-epoch, measured over the second half of the run (the
//     first half is warmup: retained buffers grow to their working-set
//     sizes there). The 1024-device row is the number CI gates against.
//
//   * machine — nproc, CPU model, compiler and build type, so a baseline
//     is only compared with a run of the same shape of machine.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <malloc.h>
#include <memory>
#include <new>
#include <sched.h>
#include <string>
#include <thread>
#include <vector>

#include "apps/demo_app.h"
#include "fleet/fleet.h"

// --- Counting allocator: tracks allocation count AND live bytes. ---

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::int64_t> g_live_bytes{0};

std::int64_t live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = std::malloc(size ? size : 1)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_live_bytes.fetch_add(
        static_cast<std::int64_t>(malloc_usable_size(p)),
        std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept {
  if (p != nullptr) {
    g_live_bytes.fetch_sub(
        static_cast<std::int64_t>(malloc_usable_size(p)),
        std::memory_order_relaxed);
  }
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}

namespace {

using namespace eandroid;
using Clock = std::chrono::steady_clock;

constexpr int kMemoryDevices = 64;

/// Best-of-N per scaling row. Short rows (small fleets) are dominated by
/// scheduler wakeup jitter — at 32 devices a row can swing ±5% rep to
/// rep — so they get extra reps to keep the committed numbers gateable.
int reps_for(int devices) { return devices < 128 ? 5 : 3; }

// --- Peak-RSS probes (Linux): VmHWM, resettable via clear_refs. ---

void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

std::int64_t peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::int64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoll(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

// --- Machine header ---------------------------------------------------------

unsigned cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// The first "model name" of /proc/cpuinfo, or "unknown".
std::string cpu_model() {
  std::string model = "unknown";
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return model;
  char line[512];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "model name", 10) != 0) continue;
    const char* colon = std::strchr(line, ':');
    if (colon == nullptr) continue;
    model = colon + 1;
    model.erase(0, model.find_first_not_of(" \t"));
    model.erase(model.find_last_not_of(" \t\n") + 1);
    break;
  }
  std::fclose(f);
  return model;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang++ ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// A JSON string literal of `s` (quotes and backslashes escaped, control
/// characters dropped).
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

// --- The shared workload: a sender, a push endpoint, a background load. ---

fleet::InstallPlan make_plan() {
  fleet::InstallPlan plan;
  apps::DemoAppSpec sender;
  sender.package = "com.fleet.weather";
  plan.add_app<apps::DemoApp>(sender);

  apps::DemoAppSpec victim;
  victim.package = "com.fleet.syncclient";
  victim.push_endpoint = true;
  plan.add_app<apps::DemoApp>(victim);

  apps::DemoAppSpec load;
  load.package = "com.fleet.load";
  load.background_cpu = 0.03;
  plan.add_app<apps::DemoApp>(load);
  return plan;
}

/// A continuous drip for a `sim_seconds` horizon: one push every 5 s per
/// device for the whole run, so long rows are not quieter than short ones.
fleet::PushCampaign make_campaign(std::int64_t sim_seconds) {
  fleet::PushCampaign campaign;
  campaign.sender_package = "com.fleet.weather";
  campaign.target_package = "com.fleet.syncclient";
  campaign.start = sim::TimePoint{} + sim::seconds(2);
  campaign.period = sim::seconds(5);
  campaign.pushes_per_device =
      static_cast<int>(std::max<std::int64_t>(1, (sim_seconds - 2) / 5));
  campaign.device_stagger = sim::millis(7);
  return campaign;
}

/// Simulated horizon per row, sized so the timed region stays >= 0.5 s
/// of wall time even for the fastest row (close to 2M device-sim-s/wall-s
/// on the reference hardware).
std::int64_t sim_seconds_for(int devices) {
  return std::max<std::int64_t>(60, 1000000 / devices);
}

// --- Memory legs -----------------------------------------------------------

/// Live bytes per device after constructing (not running) `n` devices
/// whose specs alias ONE shared config set.
std::int64_t shared_leg_bytes_per_device(int n) {
  const auto plan =
      std::make_shared<const fleet::InstallPlan>(make_plan());
  const auto params = hw::shared_nexus4_params();
  const auto engine_config = fleet::shared_default_engine_config();
  std::vector<std::unique_ptr<fleet::DeviceContext>> devices;
  devices.reserve(static_cast<std::size_t>(n));
  const std::int64_t before = live_bytes();
  for (int i = 0; i < n; ++i) {
    fleet::DeviceSpec spec;
    spec.seed = 1 + static_cast<std::uint64_t>(i);
    spec.device_index = i;
    spec.params = params;
    spec.engine_config = engine_config;
    spec.install_plan = plan;
    devices.push_back(std::make_unique<fleet::DeviceContext>(std::move(spec)));
  }
  return (live_bytes() - before) / n;
}

/// The pre-refactor shape: every device owns private copies of the
/// params, engine config, and manifests.
std::int64_t copied_leg_bytes_per_device(int n) {
  std::vector<std::unique_ptr<fleet::DeviceContext>> devices;
  devices.reserve(static_cast<std::size_t>(n));
  const std::int64_t before = live_bytes();
  for (int i = 0; i < n; ++i) {
    fleet::DeviceSpec spec;
    spec.seed = 1 + static_cast<std::uint64_t>(i);
    spec.device_index = i;
    spec.params =
        std::make_shared<const hw::PowerParams>(hw::nexus4_params());
    spec.engine_config = std::make_shared<const core::EngineConfig>();
    // A fresh plan per device re-freezes every manifest: the per-device
    // Manifest copies the old Testbed-per-phone design paid for.
    spec.install_plan =
        std::make_shared<const fleet::InstallPlan>(make_plan());
    devices.push_back(std::make_unique<fleet::DeviceContext>(std::move(spec)));
  }
  return (live_bytes() - before) / n;
}

// --- Scaling legs ----------------------------------------------------------

struct ScaleResult {
  int devices = 0;
  int threads = 0;  // fleet workers
  std::int64_t sim_seconds = 0;
  double wall_s = 0.0;
  double device_sim_s_per_wall_s = 0.0;
  /// Heap allocations per device per 5 s epoch over the steady-state
  /// (post-warmup) half of the run; any climb here is a retention bug.
  double allocs_per_device_epoch = 0.0;
  std::int64_t peak_rss_kb_per_device = 0;
  std::uint64_t pushes_delivered = 0;
};

ScaleResult run_fleet_once(int devices, int threads,
                           std::int64_t sim_seconds) {
  reset_peak_rss();
  fleet::FleetOptions options;
  options.device_count = devices;
  options.workers = static_cast<unsigned>(threads);
  options.epoch = sim::seconds(5);
  options.install_plan =
      std::make_shared<const fleet::InstallPlan>(make_plan());
  fleet::Fleet fleet(options);
  fleet.broker().add_campaign(make_campaign(sim_seconds));
  fleet.start();

  // First half is warmup (retained buffers settle); the alloc counter
  // only watches the second half. Splitting run_for is
  // observable-result-neutral (the equivalence suites cover multi-leg
  // timelines), and both halves stay inside the timed region.
  const std::int64_t warmup_s = sim_seconds / 2;
  const auto start = Clock::now();
  fleet.run_for(sim::seconds(warmup_s));
  const std::uint64_t allocs_before =
      g_allocs.load(std::memory_order_relaxed);
  fleet.run_for(sim::seconds(sim_seconds - warmup_s));
  const std::uint64_t allocs_after =
      g_allocs.load(std::memory_order_relaxed);
  fleet.finish();
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();

  ScaleResult result;
  result.devices = devices;
  result.threads = threads;
  result.sim_seconds = sim_seconds;
  result.wall_s = wall;
  result.device_sim_s_per_wall_s =
      static_cast<double>(devices) * static_cast<double>(sim_seconds) / wall;
  const double epochs =
      static_cast<double>(sim_seconds - warmup_s) / 5.0;
  result.allocs_per_device_epoch =
      static_cast<double>(allocs_after - allocs_before) /
      (epochs * static_cast<double>(devices));
  result.peak_rss_kb_per_device = peak_rss_kb() / devices;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    result.pushes_delivered +=
        fleet.device(i).server().push().pushes_delivered();
  }
  return result;
}

ScaleResult best_of(int devices, int threads) {
  const std::int64_t sim_seconds = sim_seconds_for(devices);
  ScaleResult best;
  for (int rep = 0; rep < reps_for(devices); ++rep) {
    const ScaleResult r = run_fleet_once(devices, threads, sim_seconds);
    if (rep == 0 || r.wall_s < best.wall_s) best = r;
  }
  return best;
}

}  // namespace

int main() {
  std::printf("=== fleet scaling: push campaigns, best-of-%d/%d rows ===\n\n",
              reps_for(8), reps_for(1024));

  const std::int64_t shared_bpd =
      shared_leg_bytes_per_device(kMemoryDevices);
  const std::int64_t copied_bpd =
      copied_leg_bytes_per_device(kMemoryDevices);
  const double savings =
      copied_bpd > 0
          ? static_cast<double>(copied_bpd - shared_bpd) /
                static_cast<double>(copied_bpd)
          : 0.0;
  std::printf("memory (%d devices): %lld bytes/device shared config, %lld "
              "copied (%.1f%% saved by sharing)\n\n",
              kMemoryDevices, static_cast<long long>(shared_bpd),
              static_cast<long long>(copied_bpd), 100.0 * savings);

  const int sizes[] = {8, 32, 128, 1024};
  std::vector<ScaleResult> results;
  std::printf("%8s %8s %8s %9s %20s %11s %13s %9s\n", "devices", "threads",
              "sim-s", "wall (s)", "dev-sim-s / wall-s", "allocs/d-ep",
              "peak RSS/dev", "pushes");
  for (const int n : sizes) {
    const ScaleResult r = best_of(n, n >= 32 ? 4 : 2);
    std::printf("%8d %8d %8lld %9.3f %20.0f %11.2f %10lld kB %9llu\n",
                r.devices, r.threads, static_cast<long long>(r.sim_seconds),
                r.wall_s, r.device_sim_s_per_wall_s,
                r.allocs_per_device_epoch,
                static_cast<long long>(r.peak_rss_kb_per_device),
                static_cast<unsigned long long>(r.pushes_delivered));
    results.push_back(r);
  }
  const double gate_throughput = results.back().device_sim_s_per_wall_s;

  std::FILE* json = std::fopen("BENCH_fleet.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"fleet_scaling\",\n"
                 "  \"machine\": {\"nproc\": %u, \"cpu_model\": %s, "
                 "\"compiler\": %s, \"build_type\": %s},\n"
                 "  \"memory\": {\"devices\": %d, "
                 "\"bytes_per_device_shared\": %lld, "
                 "\"bytes_per_device_copied\": %lld, "
                 "\"shared_savings_fraction\": %.4f},\n"
                 "  \"scaling\": [\n",
                 cpu_count(), quoted(cpu_model()).c_str(),
                 quoted(compiler()).c_str(), quoted(EA_BENCH_BUILD_TYPE).c_str(),
                 kMemoryDevices, static_cast<long long>(shared_bpd),
                 static_cast<long long>(copied_bpd), savings);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const ScaleResult& r = results[i];
      std::fprintf(json,
                   "    {\"devices\": %d, "
                   "\"threads\": %d, \"sim_seconds\": %lld, "
                   "\"wall_s\": %.4f, "
                   "\"device_sim_s_per_wall_s\": %.1f, "
                   "\"allocs_per_device_epoch\": %.2f, "
                   "\"peak_rss_kb_per_device\": %lld, "
                   "\"pushes_delivered\": %llu}%s\n",
                   r.devices, r.threads,
                   static_cast<long long>(r.sim_seconds), r.wall_s,
                   r.device_sim_s_per_wall_s, r.allocs_per_device_epoch,
                   static_cast<long long>(r.peak_rss_kb_per_device),
                   static_cast<unsigned long long>(r.pushes_delivered),
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n"
                 "  \"throughput_device_sim_s_per_wall_s\": %.1f\n"
                 "}\n",
                 gate_throughput);
    std::fclose(json);
    std::printf("\nwrote BENCH_fleet.json\n");
  }

  // Sharing must never LOSE memory; a negative saving means the refactor
  // regressed.
  if (shared_bpd > copied_bpd) {
    std::printf("FAIL: shared-config devices are larger than copied-config "
                "devices\n");
    return 1;
  }
  return 0;
}
