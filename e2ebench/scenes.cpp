// paper_scenes: the 13 single-phone runs of apps/scenarios.h — the two
// Fig 9 scenes, the six attacks (both attack-6 variants) and the four
// extension runs — each with the obs trace on, so every job records a
// trace and exports its text and Chrome JSON forms. Jobs fan out through
// exp::run_indexed; the fleet scheduler, broker and aggregation are not
// involved.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "apps/malware.h"
#include "apps/scenarios.h"
#include "exp/parallel_runner.h"
#include "sim/rng.h"
#include "workloads.h"

namespace e2e {
namespace {

using namespace eandroid;
using apps::ScenarioResult;
using apps::TestbedOptions;

struct Scene {
  /// ScenarioResult::name of the run.
  const char* name;
  /// The attacker, whose E-Android share must exceed its stock-Android
  /// share; null for the benign scenes and the attack-6 control.
  const char* malware;
  ScenarioResult (*run)(std::uint64_t seed, const TestbedOptions& base);
};

const Scene kScenes[] = {
    {"scene1_message_films_video", nullptr,
     [](std::uint64_t s, const TestbedOptions& b) {
       return apps::run_scene1(s, b);
     }},
    {"scene2_contacts_message_camera", nullptr,
     [](std::uint64_t s, const TestbedOptions& b) {
       return apps::run_scene2(s, b);
     }},
    {"attack1_component_hijack", apps::HijackMalware::kPackage,
     [](std::uint64_t s, const TestbedOptions& b) {
       return apps::run_attack1(s, b);
     }},
    {"attack2_background_spawn", apps::SpawnerMalware::kPackage,
     [](std::uint64_t s, const TestbedOptions& b) {
       return apps::run_attack2(s, b);
     }},
    {"attack3_bind_service", apps::BinderMalware::kPackage,
     [](std::uint64_t s, const TestbedOptions& b) {
       return apps::run_attack3(s, b);
     }},
    {"attack4_interrupt_to_background", apps::InterrupterMalware::kPackage,
     [](std::uint64_t s, const TestbedOptions& b) {
       return apps::run_attack4(s, b);
     }},
    {"attack5_brightness_escalation", apps::BrightnessMalware::kPackage,
     [](std::uint64_t s, const TestbedOptions& b) {
       return apps::run_attack5(s, 255, b);
     }},
    {"attack6_wakelock_leaked", apps::WakelockMalware::kPackage,
     [](std::uint64_t s, const TestbedOptions& b) {
       return apps::run_attack6(s, false, b);
     }},
    {"attack6_wakelock_released", nullptr,
     [](std::uint64_t s, const TestbedOptions& b) {
       return apps::run_attack6(s, true, b);
     }},
    {"chain_attack_fig7", apps::BinderMalware::kPackage,
     [](std::uint64_t s, const TestbedOptions& b) {
       return apps::run_chain_attack(s, b);
     }},
    {"multi_hybrid_attack", apps::HybridMalware::kPackage,
     [](std::uint64_t s, const TestbedOptions& b) {
       return apps::run_multi_attack(s, b);
     }},
    {"push_flood_attack", apps::PushFlooderMalware::kPackage,
     [](std::uint64_t s, const TestbedOptions& b) {
       return apps::run_push_flood(s, b);
     }},
    {"benign_interruption_leaked_wakelock", nullptr,
     [](std::uint64_t s, const TestbedOptions& b) {
       return apps::run_benign_interruption(s, b);
     }},
};
constexpr std::size_t kSceneCount = std::size(kScenes);
/// Per-job seeds per scene in one batch: 13 x 8 = 104 jobs, enough for a
/// p90 with ten samples beyond it in every batch.
constexpr std::size_t kSeedsPerScene = 8;

struct Job {
  std::size_t scene = 0;
  std::uint64_t seed = 1;
};

/// The batch's job list: every scene kSeedsPerScene times, each with its
/// own seed, in a seed-shuffled order.
std::vector<Job> make_jobs(std::uint64_t seed) {
  sim::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5ce4e5);
  std::vector<Job> jobs;
  for (std::size_t s = 0; s < kSceneCount; ++s) {
    for (std::size_t k = 0; k < kSeedsPerScene; ++k) jobs.push_back({s, rng()});
  }
  for (std::size_t i = jobs.size() - 1; i > 0; --i) {
    std::swap(jobs[i], jobs[rng.below(i + 1)]);
  }
  return jobs;
}

/// What a job hands back: its timing, trace size, check verdict, and the
/// numbers that must repeat bit for bit from batch to batch.
struct JobOutcome {
  std::int64_t start_ns = 0;
  double ms = 0.0;
  double sim_s = 0.0;
  std::uint64_t trace_bytes = 0;
  std::uint64_t trace_events = 0;
  std::string problem;  // empty when every check passed
  std::vector<double> totals;
  std::uint64_t windows_opened = 0;
  std::uint64_t windows_closed = 0;

  [[nodiscard]] bool same_result(const JobOutcome& o) const {
    return totals == o.totals && windows_opened == o.windows_opened &&
           windows_closed == o.windows_closed &&
           trace_bytes == o.trace_bytes && trace_events == o.trace_events;
  }
};

/// The checks satellite to every scene job (§VI-B and the attack claim).
std::string check(const Scene& scene, const ScenarioResult& r,
                  std::uint64_t dropped) {
  const double drain = r.battery_drained_mj;
  for (const double total : {r.android_view.total_mj,
                             r.powertutor_view.total_mj,
                             r.ea_view.true_total_mj}) {
    if (std::fabs(total - drain) > 1.0) {
      return "A/PT/E totals differ from the battery drain by more than 1 mJ";
    }
  }
  if (scene.malware != nullptr &&
      !(r.ea_view.percent_of(scene.malware) >
        r.android_view.percent_of(scene.malware))) {
    return std::string("E-Android share of ") + scene.malware +
           " does not exceed its stock-Android share";
  }
  if (dropped != 0) return "trace dropped events";
  return {};
}

JobOutcome run_job(const Job& job, bool obs_trace, Spans& spans, int parent,
                   std::int64_t request) {
  const Scene& scene = kScenes[job.scene];
  TestbedOptions base;
  base.obs.trace = obs_trace;
  JobOutcome out;
  out.start_ns = now_ns();
  try {
    ScenarioResult r;
    {
      Timed t(spans, scene.name, parent, request);
      r = scene.run(job.seed, base);
      out.ms = t.stop() * 1e3;
    }
    unsigned long long events = 0, dropped = 0;
    if (obs_trace &&
        std::sscanf(r.trace_text.c_str(), "# trace events=%llu dropped=%llu",
                    &events, &dropped) != 2) {
      out.problem = "trace export has no header";
      return out;
    }
    // Simulated session length: the instant of the last trace event (the
    // sampler's closing slice).
    const std::size_t last = r.trace_text.rfind("\n@");
    if (last != std::string::npos) {
      out.sim_s = std::strtod(r.trace_text.c_str() + last + 2, nullptr) * 1e-6;
    }
    out.trace_events = events;
    out.trace_bytes = r.trace_text.size() + r.trace_json.size();
    out.totals = {r.battery_drained_mj, r.android_view.total_mj,
                  r.powertutor_view.total_mj, r.ea_view.true_total_mj};
    out.windows_opened = r.windows_opened;
    out.windows_closed = r.windows_closed;
    out.problem = check(scene, r, dropped);
  } catch (const std::exception& e) {
    out.problem = std::string("threw: ") + e.what();
  }
  return out;
}

struct Batch {
  double wall_s = 0.0;
  /// The jobs' simulated session lengths, summed.
  double sim_s = 0.0;
  /// The runner's set-up: from the batch's start (building the job
  /// closures and the thread pool) to the start of its first job.
  double setup_s = 0.0;
  std::vector<JobOutcome> jobs;
  /// VmHWM over the batch (reset when it starts).
  std::int64_t peak_rss_kb = 0;
};

/// Runs every job once on `threads` runner threads. The batch gets a span
/// in `spans`, each job one in `job_spans`.
Batch run_batch(const std::vector<Job>& jobs, bool obs_trace, unsigned threads,
                Spans& spans, Spans& job_spans, const char* span_name,
                int parent, std::int64_t index) {
  Batch batch;
  reset_peak_rss();
  const std::int64_t start_ns = now_ns();
  Timed t(spans, span_name, parent, index);
  exp::RunnerOptions options;
  options.threads = threads;
  batch.jobs = exp::run_indexed<JobOutcome>(
      jobs.size(),
      [&](std::size_t i) {
        return run_job(jobs[i], obs_trace, job_spans, t.id(),
                       static_cast<std::int64_t>(i));
      },
      options);
  batch.wall_s = t.stop();
  std::int64_t first_ns = batch.jobs.front().start_ns;
  for (const JobOutcome& j : batch.jobs) {
    first_ns = std::min(first_ns, j.start_ns);
    batch.sim_s += j.sim_s;
  }
  batch.setup_s = static_cast<double>(first_ns - start_ns) * 1e-9;
  batch.peak_rss_kb = status_kb("VmHWM");
  spans.recycle_thread_slots();
  return batch;
}

/// Checks a finished batch against the first one; marks the jobs whose
/// checks failed in `job_failed`.
void check_batch(const std::vector<Job>& jobs, const Batch& batch,
                 const Batch* first, RunResult& result,
                 std::vector<bool>& job_failed) {
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobOutcome& job = batch.jobs[i];
    std::string problem = job.problem;
    if (problem.empty() && first != nullptr &&
        !job.same_result(first->jobs[i])) {
      problem = "result differs from the first batch";
    }
    if (!problem.empty()) {
      job_failed[i] = true;
      result.problem(std::string(kScenes[jobs[i].scene].name) + " seed " +
                     std::to_string(jobs[i].seed) + ": " + problem);
    }
  }
}

}  // namespace

RunResult run_paper_scenes(const RunConfig& config) {
  RunResult result;
  const std::vector<Job> jobs = make_jobs(config.seed);
  std::vector<bool> job_failed(jobs.size());
  const unsigned threads = config.workers;
  Spans spans(config.traced);
  const std::int64_t begin = now_ns();
  auto elapsed = [&] { return static_cast<double>(now_ns() - begin) * 1e-9; };

  std::vector<Batch> reference;  // obs trace on, no benchmark spans
  Spans off(false);
  const double reference_until =
      config.traced ? kUntracedShare * config.seconds : config.seconds;
  // The first batch warms the heap and caches: checked, but not timed.
  const std::size_t min_batches = config.traced ? 3 : 4;
  while (reference.size() < min_batches || elapsed() < reference_until) {
    reference.push_back(
        run_batch(jobs, true, threads, off, off, "exp.batch", -1,
                  static_cast<std::int64_t>(reference.size())));
    check_batch(jobs, reference.back(), &reference.front(), result,
                job_failed);
    // Checks compare with the first batch only. Dropping the other
    // batches' outcomes keeps the process from growing with the number of
    // batches that fit in the run, which peak_rss_mb would otherwise show.
    if (reference.size() > 1) reference.back().jobs = std::vector<JobOutcome>();
  }

  if (!config.traced) {
    std::vector<double> setup_s, sim_per_s, peak_mb;
    for (std::size_t i = 1; i < reference.size(); ++i) {
      const Batch& b = reference[i];
      setup_s.push_back(b.setup_s);
      peak_mb.push_back(static_cast<double>(b.peak_rss_kb) / 1024.0);
      sim_per_s.push_back(b.sim_s / b.wall_s);
    }
    // Each job builds its own device, so the only set-up outside the jobs
    // is the runner's, once per batch.
    result.add("setup_s", median(setup_s), "s");
    result.add("device_sim_s_per_wall_s", median(sim_per_s), "device-s/s");
    result.add("peak_rss_mb", median(peak_mb), "MB");
  } else {
    // Traced phase: traced batches alternate with replays of the same
    // jobs with the obs trace off, which price the trace (obs.share_of_job).
    set_alloc_counting(true);
    const int root = spans.open("bench.traced", now_ns(), -1, 0);
    std::vector<Batch> traced, obs_off;
    while (traced.size() < 2 || elapsed() < config.seconds) {
      traced.push_back(
          run_batch(jobs, true, threads, spans, spans, "exp.batch", root,
                    static_cast<std::int64_t>(traced.size())));
      check_batch(jobs, traced.back(), &reference.front(), result,
                  job_failed);
      obs_off.push_back(run_batch(jobs, false, threads, spans, off,
                                  "bench.obs_off_replay", root,
                                  static_cast<std::int64_t>(obs_off.size())));
      check_batch(jobs, obs_off.back(), nullptr, result, job_failed);
    }
    spans.close(root, now_ns());
    set_alloc_counting(false);

    std::vector<double> all_ms, busy, wall_traced, wall_reference;
    std::vector<std::vector<double>> scene_ms(kSceneCount);
    std::vector<double> scene_traced(kSceneCount), scene_plain(kSceneCount);
    double runner_ws = 0.0, job_ws = 0.0;
    for (std::size_t b = 0; b < traced.size(); ++b) {
      double sum_ms = 0.0;
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        const double ms = traced[b].jobs[i].ms;
        all_ms.push_back(ms);
        scene_ms[jobs[i].scene].push_back(ms);
        scene_traced[jobs[i].scene] += ms;
        scene_plain[jobs[i].scene] += obs_off[b].jobs[i].ms;
        sum_ms += ms;
      }
      busy.push_back(sum_ms * 1e-3 / (threads * traced[b].wall_s));
      wall_traced.push_back(traced[b].wall_s);
      runner_ws += threads * traced[b].wall_s;
      job_ws += sum_ms * 1e-3;
    }
    for (std::size_t i = 1; i < reference.size(); ++i) {
      wall_reference.push_back(reference[i].wall_s);
    }
    double traced_total = 0.0, plain_total = 0.0;
    for (std::size_t s = 0; s < kSceneCount; ++s) {
      traced_total += scene_traced[s];
      plain_total += scene_plain[s];
      result.add(std::string("apps.job_ms_p50.") + kScenes[s].name,
                 median(scene_ms[s]), "ms");
    }
    double bytes = 0.0, events = 0.0, opened = 0.0, closed = 0.0;
    for (const JobOutcome& j : traced.front().jobs) {
      bytes += static_cast<double>(j.trace_bytes);
      events += static_cast<double>(j.trace_events);
      opened += static_cast<double>(j.windows_opened);
      closed += static_cast<double>(j.windows_closed);
    }
    result.add("core.windows_opened", opened, "count");
    result.add("core.windows_closed", closed, "count");
    result.add("scenario_ms_p50", quantile(all_ms, 0.5), "ms");
    result.add("scenario_ms_p90", quantile(all_ms, 0.9), "ms");
    const double job_count = static_cast<double>(jobs.size());
    result.add("obs.trace_bytes_per_job", bytes / job_count, "bytes/job");
    result.add("obs.trace_events_per_job", events / job_count, "events/job");
    result.add("obs.share_of_job",
               (traced_total - plain_total) / traced_total, "frac");
    result.add("exp.jobs", static_cast<double>(jobs.size()), "count");
    result.add("exp.runner_busy_frac", median(busy), "frac");
    result.add("bench.span_overhead_frac",
               median(wall_traced) / median(wall_reference) - 1.0, "frac");

    // Ledger: a traced batch's wall splits into each scene's job time
    // without the trace, the trace's share (record + export), and runner
    // idle time, all divided by the thread count.
    std::vector<LedgerRow> batch_split;
    for (std::size_t s = 0; s < kSceneCount; ++s) {
      batch_split.push_back({std::string("apps.") + kScenes[s].name,
                             std::min(scene_plain[s], scene_traced[s]) * 1e-3});
    }
    batch_split.push_back({"obs.trace (record + export)",
                           std::max(0.0, traced_total - plain_total) * 1e-3});
    batch_split.push_back(
        {"exp.runner_idle", std::max(0.0, runner_ws - job_ws)});
    report_ledger("paper_scenes", spans, root, {{"exp.batch", batch_split}},
                  config.span_path, result);
  }
  result.count_ops(job_failed);
  return result;
}

int selftest_scenes(std::uint64_t seed, unsigned workers) {
  // One job per scene, traced: the exported trace text and JSON must be
  // byte-identical with 1 and `workers` runner threads.
  std::vector<Job> jobs;
  sim::Rng rng(seed);
  for (std::size_t s = 0; s < kSceneCount; ++s) jobs.push_back({s, rng()});
  auto run_all = [&](unsigned threads) {
    exp::RunnerOptions options;
    options.threads = threads;
    return exp::run_indexed<ScenarioResult>(
        jobs.size(),
        [&](std::size_t i) {
          TestbedOptions base;
          base.obs.trace = true;
          return kScenes[jobs[i].scene].run(jobs[i].seed, base);
        },
        options);
  };
  const std::vector<ScenarioResult> serial = run_all(1);
  const std::vector<ScenarioResult> parallel = run_all(workers);
  int failures = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const ScenarioResult& a = serial[i];
    const ScenarioResult& b = parallel[i];
    const bool same = a.trace_text == b.trace_text &&
                      a.trace_json == b.trace_json &&
                      a.battery_drained_mj == b.battery_drained_mj &&
                      a.ea_view.true_total_mj == b.ea_view.true_total_mj;
    const std::string problem = check(kScenes[jobs[i].scene], a, 0);
    if (!same || !problem.empty()) ++failures;
  }
  std::printf("selftest: %-4s paper_scenes: 13 traced jobs pass their "
              "checks and repeat byte for byte with 1 vs %u threads\n",
              failures == 0 ? "ok" : "FAIL", workers);
  return failures;
}

}  // namespace e2e
