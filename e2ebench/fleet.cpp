// fleet_campaign: a population of phones running the Fig 9 cast under a
// push-driven malware campaign, advanced in one long run_for (a single
// barrier), then carried through finish(), aggregate_fleet and the
// collateral-attack detector.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/demo_app.h"
#include "core/detector.h"
#include "core/invariants.h"
#include "fleet/aggregate.h"
#include "fleet/fleet.h"
#include "fuzz/executor.h"
#include "fuzz/generator.h"
#include "sim/rng.h"
#include "workloads.h"

namespace e2e {
namespace {

using namespace eandroid;

constexpr const char* kFloodPackage = "com.bench.flood";
constexpr const char* kSyncPackage = "com.bench.sync";
/// The flood hits one device in kFloodStride (PushCampaign::device_stride).
constexpr int kFloodStride = 4;
/// Causal-window length (FleetOptions::epoch); the serial replay advances
/// by the same windows.
constexpr sim::Duration kEpoch = sim::seconds(1);
/// Devices replayed outside the fleet in a plain serial loop, on the
/// first rep of a run (the untimed warm-up).
constexpr int kReplayDevices = 4;

struct Shape {
  int devices = 0;
  sim::Duration horizon;
};

// The population is sized so that the per-device spread of program cost
// and memory averages out: a seed changes the total by a few percent.
constexpr Shape kCampaign{512, sim::seconds(3600)};

/// Everything a rep consumes, generated from the seed before any clock
/// starts. The program under test receives only these.
struct Inputs {
  Shape shape;
  std::uint64_t base_seed = 1;
  int flood_phase = 0;
  std::shared_ptr<const fleet::InstallPlan> plan;
  std::vector<fleet::PushCampaign> campaigns;
  std::vector<fuzz::ScenarioProgram> programs;
  std::vector<int> replay_devices;

  [[nodiscard]] bool attacked(int device) const {
    return device % kFloodStride == flood_phase;
  }
};

Inputs make_inputs(const Shape& shape, std::uint64_t seed) {
  Inputs in;
  in.shape = shape;
  sim::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xe2e);
  in.base_seed = rng();
  in.flood_phase = static_cast<int>(rng.below(kFloodStride));

  // The Fig 9 cast as the fuzzer packages it, plus the two senders.
  auto plan = std::make_shared<fleet::InstallPlan>();
  const std::shared_ptr<const fleet::InstallPlan> cast =
      fuzz::cast_install_plan();
  for (const fleet::InstallPlan::Entry& entry : cast->entries()) {
    plan->add(entry.manifest, entry.make_code);
  }
  for (const char* sender : {kFloodPackage, kSyncPackage}) {
    apps::DemoAppSpec spec;
    spec.package = sender;
    plan->add_app<apps::DemoApp>(spec);
  }
  in.plan = std::move(plan);

  // Send instants are not locked to the 250 ms sampling grid: neither
  // period is a multiple of it, so each device's sends drift through
  // every phase of its sample windows, as real traffic would. Each
  // campaign sends as many pushes as fit in the horizon on the device
  // whose stagger starts it last.
  const auto pushes = [&shape](const fleet::PushCampaign& c) {
    const std::int64_t last_start_us =
        c.start.micros() + c.device_stagger.micros() * (shape.devices - 1);
    return static_cast<int>(
        (shape.horizon.micros() - last_start_us) / c.period.micros() + 1);
  };
  fleet::PushCampaign flood;
  flood.sender_package = kFloodPackage;
  flood.target_package = fuzz::kCastPackages[fuzz::kPushApp];
  flood.start = sim::TimePoint{} + sim::micros(1'526'173);
  flood.period = sim::micros(1'007'919);
  flood.device_stagger = sim::micros(13'001);
  flood.pushes_per_device = pushes(flood);
  flood.device_stride = kFloodStride;
  flood.device_phase = in.flood_phase;
  in.campaigns.push_back(flood);

  fleet::PushCampaign sync;
  sync.sender_package = kSyncPackage;
  sync.target_package = fuzz::kCastPackages[fuzz::kPushApp];
  sync.start = sim::TimePoint{} + sim::micros(30'000'311);
  sync.period = sim::micros(300'007'919);
  sync.device_stagger = sim::micros(1'009'001);
  sync.pushes_per_device = pushes(sync);
  sync.bytes = 16384;
  in.campaigns.push_back(sync);

  // One program per device, its steps spread over the hour (30 steps at
  // most 70 s apart, so every step lands inside the horizon). A fixed
  // step count keeps the population's total work nearly seed-independent.
  in.programs.reserve(static_cast<std::size_t>(shape.devices));
  for (int i = 0; i < shape.devices; ++i) {
    fuzz::GeneratorOptions options;
    options.seed = rng();
    options.min_steps = 30;
    options.max_steps = 30;
    options.min_gap_us = 10'000'001;
    options.max_gap_us = 70'000'003;
    in.programs.push_back(fuzz::generate(options));
  }

  // Replay sample: half from the attacked slice, half from the rest.
  while (static_cast<int>(in.replay_devices.size()) < kReplayDevices) {
    const int d = static_cast<int>(rng.below(
        static_cast<std::uint64_t>(shape.devices)));
    const bool want_attacked =
        in.replay_devices.size() < kReplayDevices / 2;
    if (in.attacked(d) == want_attacked &&
        std::find(in.replay_devices.begin(), in.replay_devices.end(), d) ==
            in.replay_devices.end()) {
      in.replay_devices.push_back(d);
    }
  }
  return in;
}

/// The plain serial reference for one fleet device: a DeviceContext from
/// an equal DeviceSpec, the same program, then PushBroker::inject +
/// advance_to per causal window. Returns its energy digest.
std::string replay_device(const Inputs& in, int index) {
  fleet::DeviceSpec spec;
  spec.seed = in.base_seed + static_cast<std::uint64_t>(index);
  spec.device_index = index;
  spec.install_plan = in.plan;
  fleet::DeviceContext device(spec);
  device.start();
  fuzz::ProgramExecutor executor(
      device, in.programs[static_cast<std::size_t>(index)]);
  executor.arm();
  fleet::PushBroker broker;
  for (const fleet::PushCampaign& c : in.campaigns) broker.add_campaign(c);
  const sim::TimePoint end = sim::TimePoint{} + in.shape.horizon;
  for (sim::TimePoint begin; begin < end; begin = begin + kEpoch) {
    const sim::TimePoint window_end = std::min(end, begin + kEpoch);
    broker.inject(device, index, begin, window_end);
    device.advance_to(window_end);
  }
  device.finish();
  return device.energy_digest();
}


/// Work counts read after finish(). They are a pure function of the
/// inputs, so every rep of a run (and every worker count) must repeat
/// them exactly.
constexpr const char* kReportCounters[] = {
    "fw.bus_events", "fw.anr_kills", "binder.txns", "binder.txn_failures",
    "fleet.pushes_injected",
};
/// Registry counters that the program creates at their first event; on a
/// fleet where none happened they are absent and read 0.
constexpr const char* kFirstEventCounters[] = {
    "fw.service_restarts", "fw.service_backoffs", "fw.lmk_kills",
};
constexpr const char* kDeterministicSched[] = {
    "fleet.sched.windows_advanced", "fleet.sched.windows_consolidated",
    "fleet.sched.tasks_executed",
};
/// Scheduler behaviour: depends on timing, so never compared.
constexpr const char* kTimingSched[] = {
    "fleet.sched.steals", "fleet.sched.parks",
    "fleet.sched.injection_refills",
};

/// A registry counter. A name the registry lacks is an error (unless the
/// counter is created at its first event), so a renamed counter cannot
/// read as "layer not called".
std::uint64_t counter(const obs::MetricsSnapshot& snapshot, const char* name,
                      bool first_event = false) {
  const obs::MetricRow* row = snapshot.find(name);
  if (row == nullptr && !first_event) {
    throw std::runtime_error(std::string("no registry metric ") + name);
  }
  return row == nullptr ? 0 : row->count;
}

struct RepStats {
  double construct_s = 0, start_s = 0, arm_s = 0, setup_s = 0;
  double run_for_s = 0, finish_s = 0, aggregate_s = 0;
  /// The timed region: run_for + finish() + aggregate_fleet.
  double timed_s = 0;
  std::map<std::string, std::uint64_t> counts;
  std::map<std::string, std::uint64_t> sched;
  std::string report_digest;
  std::vector<std::string> digests;
  /// VmHWM over the rep (reset when it starts).
  std::int64_t peak_rss_kb = 0;

  // Traced run only.
  std::int64_t run_for_cpu_ns = 0;
  std::uint64_t gather_ns = 0, fold_ns = 0, timed_ticks = 0;
  std::uint64_t run_for_events = 0, run_for_allocs = 0;
  std::int64_t rss0_kb = 0, rss_mid_kb = 0, rss_end_kb = 0;
  double report_us = 0, scan_us = 0, merge_us = 0;  // per device
};

struct Totals {
  std::uint64_t events = 0, gather_ns = 0, fold_ns = 0, ticks = 0;
};

Totals device_totals(fleet::Fleet& f) {
  Totals t;
  for (std::size_t i = 0; i < f.size(); ++i) {
    fleet::DeviceContext& d = f.device(i);
    const energy::EnergySampler::StageNanos stage = d.sampler().stage_nanos();
    t.events += d.sim().events_dispatched();
    t.gather_ns += stage.gather_ns;
    t.fold_ns += stage.fold_ns;
    t.ticks += stage.ticks;
  }
  return t;
}

/// Traced run: repeats aggregate_fleet's three per-device calls, one loop
/// per call so each gets a span, and records the per-device cost.
void replay_aggregate(fleet::Fleet& f, Spans& spans, int parent,
                      RepStats& rep) {
  Timed all(spans, "bench.aggregate_replay", parent);
  const double n = static_cast<double>(f.size());
  {
    Timed t(spans, "core.engine_report", all.id());
    for (std::size_t i = 0; i < f.size(); ++i) {
      static_cast<void>(f.device(i).engine_report());
    }
    rep.report_us = t.stop() * 1e6 / n;
  }
  {
    Timed t(spans, "core.detector_scan", all.id());
    for (std::size_t i = 0; i < f.size(); ++i) {
      fleet::DeviceContext& d = f.device(i);
      static_cast<void>(
          core::CollateralAttackDetector(d.server(), *d.eandroid()).scan());
    }
    rep.scan_us = t.stop() * 1e6 / n;
  }
  {
    Timed t(spans, "obs.metrics_merge", all.id());
    obs::MetricsSnapshot merged;
    for (std::size_t i = 0; i < f.size(); ++i) {
      merged.merge(f.device(i).metrics_snapshot());
    }
    rep.merge_us = t.stop() * 1e6 / n;
  }
}

/// Per-device checks after finish(); returns the devices that failed.
/// A detector verdict that misses the ground truth fails the device but
/// is not a wrong output (README.md, Correctness checks).
std::set<int> check_devices(fleet::Fleet& f, const Inputs& in,
                            RunResult& result) {
  std::set<int> failed;
  for (int i = 0; i < in.shape.devices; ++i) {
    fleet::DeviceContext& d = f.device(static_cast<std::size_t>(i));
    core::InvariantChecker checker(d.server());
    checker.attach(d.eandroid());
    checker.attach(&d.battery_stats());
    checker.attach(&d.power_tutor());
    const core::InvariantReport invariants = checker.check();
    if (!invariants.ok()) {
      failed.insert(i);
      result.problem("device " + std::to_string(i) +
                     " invariants: " + invariants.violations.front());
    }
    bool flagged = false;
    for (const core::Alert& alert :
         core::CollateralAttackDetector(d.server(), *d.eandroid()).scan()) {
      flagged = flagged || alert.package == kFloodPackage;
    }
    if (flagged != in.attacked(i)) {
      failed.insert(i);
      result.problem("device " + std::to_string(i) + ": flood sender " +
                         (flagged ? "flagged outside" : "not flagged inside") +
                         " the attacked slice",
                     /*wrong_output=*/false);
    }
  }
  return failed;
}

/// One rep: build, start and arm a fleet (set-up), run the timed region,
/// collect counts, check, destroy. `reference` is the first rep of the
/// same mode; this rep's counts and digests must equal it. Marks the
/// devices whose checks failed in `device_failed`.
RepStats run_rep(const Inputs& in, unsigned workers, bool traced,
                 bool replay, const RepStats* reference, Spans& spans,
                 int parent, RunResult& result,
                 std::vector<bool>& device_failed) {
  const int n = in.shape.devices;
  RepStats rep;
  reset_peak_rss();
  if (traced) rep.rss0_kb = status_kb("VmRSS");

  // Declared before the fleet so the fleet (whose devices hold the armed
  // closures) is destroyed first.
  std::vector<std::unique_ptr<fuzz::ProgramExecutor>> executors;
  std::unique_ptr<fleet::Fleet> f;
  {
    Timed setup(spans, "bench.setup", parent);
    {
      Timed t(spans, "fleet.construct", setup.id());
      fleet::FleetOptions options;
      options.device_count = n;
      options.base_seed = in.base_seed;
      options.seed_stride = 1;
      options.scheduler = fleet::Scheduler::kWorkStealing;
      options.workers = workers;
      options.epoch = kEpoch;
      options.install_plan = in.plan;
      f = std::make_unique<fleet::Fleet>(std::move(options));
      for (const fleet::PushCampaign& c : in.campaigns) {
        f->broker().add_campaign(c);
      }
      rep.construct_s = t.stop();
    }
    if (traced) {
      for (int i = 0; i < n; ++i) {
        f->device(static_cast<std::size_t>(i))
            .sampler()
            .enable_stage_timing(true);
      }
    }
    {
      Timed t(spans, "fleet.start", setup.id());
      f->start();
      rep.start_s = t.stop();
    }
    {
      Timed t(spans, "fuzz.arm", setup.id());
      executors.reserve(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        executors.push_back(std::make_unique<fuzz::ProgramExecutor>(
            f->device(static_cast<std::size_t>(i)),
            in.programs[static_cast<std::size_t>(i)]));
        executors.back()->arm();
      }
      rep.arm_s = t.stop();
    }
    rep.setup_s = setup.stop();
  }

  auto advance = [&](sim::Duration d, int span_parent) {
    const std::int64_t cpu0 = traced ? process_cpu_ns() : 0;
    const std::uint64_t allocs0 = traced ? allocations() : 0;
    Timed t(spans, "fleet.run_for", span_parent);
    f->run_for(d);
    rep.run_for_s += t.stop();
    if (traced) {
      rep.run_for_cpu_ns += process_cpu_ns() - cpu0;
      rep.run_for_allocs += allocations() - allocs0;
    }
  };

  fleet::FleetReport report;
  {
    Timed timed(spans, "bench.timed", parent);
    if (traced) {
      // The traced run reads RSS halfway (rss_growth); splitting run_for
      // leaves every digest unchanged.
      const Totals before = device_totals(*f);
      advance(in.shape.horizon / 2, timed.id());
      rep.rss_mid_kb = status_kb("VmRSS");
      advance(in.shape.horizon - in.shape.horizon / 2, timed.id());
      const Totals after = device_totals(*f);
      rep.run_for_events = after.events - before.events;
      rep.gather_ns = after.gather_ns - before.gather_ns;
      rep.fold_ns = after.fold_ns - before.fold_ns;
      rep.timed_ticks = after.ticks - before.ticks;
      rep.rss_end_kb = status_kb("VmRSS");
    } else {
      advance(in.shape.horizon, timed.id());
    }
    {
      Timed t(spans, "fleet.finish", timed.id());
      f->finish();
      rep.finish_s = t.stop();
    }
    {
      Timed t(spans, "fleet.aggregate", timed.id());
      report = fleet::aggregate_fleet(*f);
      rep.aggregate_s = t.stop();
    }
    rep.timed_s = timed.stop();
  }
  if (traced) replay_aggregate(*f, spans, parent, rep);
  rep.peak_rss_kb = status_kb("VmHWM");

  std::set<int> failed;
  {
    Timed collect(spans, "bench.check", parent);
    const obs::MetricsSnapshot sched = f->scheduler_metrics();
    for (const char* name : kDeterministicSched) {
      rep.counts[name] = counter(sched, name);
    }
    for (const char* name : kTimingSched) {
      rep.sched[name] = counter(sched, name);
    }
    for (const char* name : kReportCounters) {
      rep.counts[name] = counter(report.metrics, name);
    }
    for (const char* name : kFirstEventCounters) {
      rep.counts[name] = counter(report.metrics, name, /*first_event=*/true);
    }
    rep.counts["fleet.broker.sends_scheduled"] = f->broker().scheduled_total();
    rep.counts["core.alerts"] = report.alerts_total;
    for (int i = 0; i < n; ++i) {
      fleet::DeviceContext& d = f->device(static_cast<std::size_t>(i));
      rep.counts["sim.events_dispatched"] += d.sim().events_dispatched();
      rep.counts["energy.ticks"] += d.sampler().slices_emitted();
      const core::WindowTracker& tracker = d.eandroid()->tracker();
      rep.counts["core.windows_opened"] += tracker.opened_total();
      rep.counts["core.windows_closed"] += tracker.closed_total();
      rep.counts["fuzz.steps_applied"] +=
          executors[static_cast<std::size_t>(i)]->steps_applied();
    }
    rep.report_digest = report.digest();
    rep.digests = f->energy_digests();

    failed = check_devices(*f, in, result);
    if (reference != nullptr) {
      for (int i = 0; i < n; ++i) {
        if (rep.digests[static_cast<std::size_t>(i)] !=
            reference->digests[static_cast<std::size_t>(i)]) {
          failed.insert(i);
          result.problem("device " + std::to_string(i) +
                         ": energy digest differs from the first rep");
        }
      }
      if (rep.counts != reference->counts ||
          rep.report_digest != reference->report_digest) {
        // Fleet-wide outputs: no single device is to blame, so every
        // device of the rep fails.
        for (int i = 0; i < n; ++i) failed.insert(i);
        result.problem("work counts or FleetReport digest differ from the "
                       "first rep");
      }
    }
    if (replay) {
      for (const int i : in.replay_devices) {
        if (replay_device(in, i) != rep.digests[static_cast<std::size_t>(i)]) {
          failed.insert(i);
          result.problem("device " + std::to_string(i) +
                         ": serial replay digest differs from the fleet's");
        }
      }
    }
  }
  for (const int i : failed) device_failed[static_cast<std::size_t>(i)] = true;
  {
    Timed t(spans, "fleet.destroy", parent);
    f.reset();
    executors.clear();
    // Hand freed pages back so the next rep starts from a heap like a
    // fresh process's: otherwise each rep's VmHWM depends on how earlier
    // reps happened to fragment the workers' malloc arenas.
    malloc_trim(0);
  }
  return rep;
}

/// The first rep of a process pays for heap growth and cold caches; it
/// is checked like every other rep but left out of the timings.
std::vector<RepStats> without_warmup(const std::vector<RepStats>& reps) {
  return {reps.begin() + 1, reps.end()};
}

double per_rep_median(const std::vector<RepStats>& reps,
                      double (*value)(const RepStats&)) {
  std::vector<double> values;
  for (const RepStats& r : reps) values.push_back(value(r));
  return median(values);
}

void add_traced_metrics(const Inputs& in, const std::vector<RepStats>& reps,
                        const std::vector<RepStats>& untraced,
                        double generate_s, unsigned workers,
                        RunResult& result) {
  const double n = in.shape.devices;
  const double device_sim_s = n * in.shape.horizon.seconds();
  const RepStats& first = reps.front();
  auto med = [&](double (*value)(const RepStats&)) {
    return per_rep_median(reps, value);
  };
  result.add("fleet.construct_s",
             med([](const RepStats& r) { return r.construct_s; }), "s");
  result.add("fleet.start_s", med([](const RepStats& r) { return r.start_s; }),
             "s");
  result.add("fleet.run_for_s",
             med([](const RepStats& r) { return r.run_for_s; }), "s");
  result.add("fleet.finish_s",
             med([](const RepStats& r) { return r.finish_s; }), "s");
  result.add("fleet.aggregate_ms_p50",
             med([](const RepStats& r) { return r.aggregate_s * 1e3; }), "ms");
  result.add("core.engine_report_us",
             med([](const RepStats& r) { return r.report_us; }), "us/device");
  result.add("core.detector_scan_us",
             med([](const RepStats& r) { return r.scan_us; }), "us/device");
  result.add("obs.metrics_merge_us",
             med([](const RepStats& r) { return r.merge_us; }), "us/device");

  std::vector<double> cpu_frac, cpu_us, unsplit, gather_frac, fold_frac,
      gather_tick, fold_tick, ns_event, allocs, rss_dev, rss_growth;
  for (const RepStats& r : reps) {
    const double cpu = static_cast<double>(r.run_for_cpu_ns);
    cpu_frac.push_back(cpu * 1e-9 / (workers * r.run_for_s));
    cpu_us.push_back(cpu * 1e-3 / device_sim_s);
    unsplit.push_back((cpu - static_cast<double>(r.gather_ns + r.fold_ns)) /
                      cpu);
    gather_frac.push_back(static_cast<double>(r.gather_ns) / cpu);
    fold_frac.push_back(static_cast<double>(r.fold_ns) / cpu);
    gather_tick.push_back(static_cast<double>(r.gather_ns) /
                          static_cast<double>(r.timed_ticks));
    fold_tick.push_back(static_cast<double>(r.fold_ns) /
                        static_cast<double>(r.timed_ticks));
    ns_event.push_back(cpu / static_cast<double>(r.run_for_events));
    allocs.push_back(static_cast<double>(r.run_for_allocs) / device_sim_s);
    rss_dev.push_back(static_cast<double>(r.rss_end_kb - r.rss0_kb) / n);
    rss_growth.push_back(static_cast<double>(r.rss_end_kb - r.rss_mid_kb) / n /
                         (in.shape.horizon.hours() / 2));
  }
  result.add("fleet.worker_cpu_frac", median(cpu_frac), "frac");
  result.add("fleet.cpu_us_per_device_sim_s", median(cpu_us), "us/device-s");
  for (const auto& [name, value] : first.sched) {
    std::vector<double> values;
    for (const RepStats& r : reps) {
      values.push_back(static_cast<double>(r.sched.at(name)));
    }
    result.add(name, median(values), "count");
  }
  for (const auto& [name, value] : first.counts) {
    result.add(name, static_cast<double>(value), "count");
  }
  auto count = [&first](const char* name) {
    return static_cast<double>(first.counts.at(name));
  };
  result.add("fleet.consolidated_frac",
             count("fleet.sched.windows_consolidated") /
                 count("fleet.sched.windows_advanced"),
             "frac");
  result.add("fleet.rss_kb_per_device", median(rss_dev), "KB/device");
  result.add("fleet.rss_growth_kb_per_device_h", median(rss_growth),
             "KB/device-h");
  result.add("fleet.allocs_per_device_sim_s", median(allocs),
             "allocs/device-s");
  result.add("fuzz.generate_s", generate_s, "s");
  result.add("fuzz.arm_s", med([](const RepStats& r) { return r.arm_s; }), "s");
  result.add("sim.cpu_ns_per_event", median(ns_event), "ns/event");
  result.add("fleet.unsplit_cpu_frac", median(unsplit), "frac");
  result.add("energy.gather_ns_per_tick", median(gather_tick), "ns/tick");
  result.add("energy.fold_ns_per_tick", median(fold_tick), "ns/tick");
  result.add("energy.gather_cpu_frac", median(gather_frac), "frac");
  result.add("energy.fold_cpu_frac", median(fold_frac), "frac");
  const double txns = count("binder.txns");
  result.add("binder.fail_frac",
             txns > 0 ? count("binder.txn_failures") / txns : 0.0, "frac");
  auto timed = [](const RepStats& r) { return r.timed_s; };
  result.add("bench.span_overhead_frac",
             med(timed) / per_rep_median(untraced, timed) - 1.0, "frac");
}

/// Work counts + digests of one small rep, for the self-test.
struct Fingerprint {
  std::map<std::string, std::uint64_t> counts;
  std::string report_digest;
  std::vector<std::string> digests;
};

Fingerprint fingerprint(const Inputs& in, unsigned workers, RunResult& result,
                        std::vector<bool>& device_failed) {
  Spans off(false);
  std::vector<bool> failed(static_cast<std::size_t>(in.shape.devices));
  RepStats rep = run_rep(in, workers, false, false, nullptr, off, -1, result,
                         failed);
  device_failed.insert(device_failed.end(), failed.begin(), failed.end());
  return {std::move(rep.counts), std::move(rep.report_digest),
          std::move(rep.digests)};
}

}  // namespace

RunResult run_fleet_campaign(const RunConfig& config) {
  RunResult result;
  const std::int64_t generate0 = now_ns();
  const Inputs in = make_inputs(kCampaign, config.seed);
  const double generate_s = static_cast<double>(now_ns() - generate0) * 1e-9;

  Spans spans(config.traced);
  Spans off(false);
  std::vector<RepStats> untraced, traced;
  std::vector<bool> device_failed(static_cast<std::size_t>(in.shape.devices));
  const std::int64_t begin = now_ns();
  auto elapsed = [&] { return static_cast<double>(now_ns() - begin) * 1e-9; };
  // Reps repeat until the budget is spent; each rep gets the same inputs.
  auto run_reps = [&](std::vector<RepStats>& reps, bool trace_on, int root,
                      double until_s, std::size_t min_reps) {
    Spans& rep_spans = trace_on ? spans : off;
    while (reps.size() < min_reps || elapsed() < until_s) {
      const RepStats* reference = reps.empty() ? nullptr : &reps.front();
      const bool replay = untraced.empty() && traced.empty();
      try {
        reps.push_back(run_rep(in, config.workers, trace_on, replay,
                               reference, rep_spans, root, result,
                               device_failed));
        // Digests are compared with the first rep's only. Dropping the
        // others keeps the process from growing with the number of reps
        // that fit in the run, which peak_rss_mb would otherwise show.
        if (reps.size() > 1) reps.back().digests = std::vector<std::string>();
      } catch (const std::exception& e) {
        device_failed.assign(device_failed.size(), true);
        result.problem(std::string("rep threw: ") + e.what());
        return false;
      }
    }
    return true;
  };

  if (!config.traced) {
    if (run_reps(untraced, false, -1, config.seconds, 4)) {
      const std::vector<RepStats> warm = without_warmup(untraced);
      result.add("setup_s",
                 per_rep_median(warm,
                                [](const RepStats& r) { return r.setup_s; }),
                 "s");
      const double device_sim_s = in.shape.devices * in.shape.horizon.seconds();
      result.add("device_sim_s_per_wall_s",
                 device_sim_s / per_rep_median(warm, [](const RepStats& r) {
                   return r.timed_s;
                 }),
                 "device-s/s");
      result.add("peak_rss_mb",
                 per_rep_median(warm, [](const RepStats& r) {
                   return static_cast<double>(r.peak_rss_kb) / 1024.0;
                 }),
                 "MB");
    }
  } else if (run_reps(untraced, false, -1, kUntracedShare * config.seconds,
                      3)) {
    set_alloc_counting(true);
    const int root = spans.open("bench.traced", now_ns(), -1, 0);
    const bool ok = run_reps(traced, true, root, config.seconds, 2);
    spans.close(root, now_ns());
    set_alloc_counting(false);
    if (ok) {
      add_traced_metrics(in, traced, without_warmup(untraced), generate_s,
                         config.workers, result);
      double cpu = 0, wall = 0, gather = 0, fold = 0;
      for (const RepStats& r : traced) {
        cpu += static_cast<double>(r.run_for_cpu_ns);
        wall += r.run_for_s * 1e9;
        gather += static_cast<double>(r.gather_ns);
        fold += static_cast<double>(r.fold_ns);
      }
      const std::map<std::string, std::vector<LedgerRow>> splits = {
          {"fleet.run_for",
           {{"energy.gather (+kernel/, hw/)", gather},
            {"energy.fold (+core/ engine)", fold},
            {"run_for.unsplit (sim/, framework/, injection)",
             std::max(0.0, cpu - gather - fold)},
            {"fleet.worker_idle",
             std::max(0.0, config.workers * wall - cpu)}}}};
      report_ledger("fleet_campaign", spans, root, splits, config.span_path,
                    result);
    }
  }
  result.count_ops(device_failed);
  return result;
}

int run_selftest(std::uint64_t seed, unsigned workers) {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::printf("selftest: %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  // The campaign at 32 devices: the same hour, cast, campaigns and checks,
  // small enough to run four times in a few seconds.
  Shape shape = kCampaign;
  shape.devices = 32;
  RunResult result;
  std::vector<bool> device_failed;
  const Inputs in = make_inputs(shape, seed);
  const Fingerprint a = fingerprint(in, workers, result, device_failed);
  const Fingerprint b = fingerprint(in, workers, result, device_failed);
  const Fingerprint serial = fingerprint(in, 1, result, device_failed);
  const Fingerprint other = fingerprint(make_inputs(shape, seed + 1), workers,
                                        result, device_failed);
  result.count_ops(device_failed);
  const std::string label = "fleet_campaign (32 devices): ";
  expect(result.correct, label + "no output check fails (" +
                             std::to_string(result.failed) + " of " +
                             std::to_string(result.attempted) +
                             " device checks failed)");
  expect(a.counts == b.counts && a.report_digest == b.report_digest &&
             a.digests == b.digests,
         label + "counts and digests repeat across two runs");
  expect(a.counts == serial.counts && a.report_digest == serial.report_digest &&
             a.digests == serial.digests,
         label + "counts and digests repeat with 1 vs " +
             std::to_string(workers) + " workers");
  expect(a.report_digest != other.report_digest,
         label + "seed " + std::to_string(seed + 1) +
             " gives another FleetReport digest");
  for (const std::string& p : result.problems) {
    std::printf("selftest:      %s\n", p.c_str());
  }
  return failures + selftest_scenes(seed, workers);
}

}  // namespace e2e
