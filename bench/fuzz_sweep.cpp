// Scenario-fuzzer sweep: many seeds through the stacked differential
// oracle, resmoke-style suite configs, BENCH_fuzz.json for trend
// tracking.
//
//   ./fuzz_sweep --suite ../bench/suites/fuzz_smoke.cfg
//   ./fuzz_sweep --suite ../bench/suites/fuzz_acceptance.cfg --seeds 1000
//   ./fuzz_sweep --suite ../bench/suites/chaos.cfg --out BENCH_chaos.json
//
// Flags: --suite <cfg> (key=value file, see src/fuzz/suite.h), --seeds N
// (override the suite's seed count), --out <json> (default
// BENCH_fuzz.json), --artifacts <dir> (where shrunk reproducers land;
// overrides the suite). EANDROID_FUZZ_SEEDS overrides --seeds. Exit 0
// iff every seed passed every oracle leg.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "fuzz/suite.h"

namespace {

using namespace eandroid;

bool load_file(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream text;
  text << in.rdbuf();
  *out = text.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string suite_path;
  std::string out_path = "BENCH_fuzz.json";
  std::string artifacts;
  long seeds_override = 0;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--suite") == 0) {
      suite_path = next("--suite");
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out_path = next("--out");
    } else if (std::strcmp(argv[i], "--artifacts") == 0) {
      artifacts = next("--artifacts");
    } else if (std::strcmp(argv[i], "--seeds") == 0) {
      seeds_override = std::strtol(next("--seeds"), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  fuzz::SweepConfig config;
  if (!suite_path.empty()) {
    std::string text, error;
    if (!load_file(suite_path, &text)) {
      std::fprintf(stderr, "cannot read suite %s\n", suite_path.c_str());
      return 2;
    }
    if (!fuzz::SweepConfig::parse(text, &config, &error)) {
      std::fprintf(stderr, "bad suite %s: %s\n", suite_path.c_str(),
                   error.c_str());
      return 2;
    }
  }
  if (const char* env = std::getenv("EANDROID_FUZZ_SEEDS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) seeds_override = parsed;
  }
  if (seeds_override > 0) config.seeds = static_cast<int>(seeds_override);
  if (!artifacts.empty()) config.artifacts_dir = artifacts;

  std::printf("=== fuzz sweep: %d seeds from %llu (steps %d..%d, "
              "single=%d fleet=%d trace=%d, budget %.0fs) ===\n\n",
              config.seeds, static_cast<unsigned long long>(config.first_seed),
              config.min_steps, config.max_steps, config.single_legs ? 1 : 0,
              config.fleet_legs ? 1 : 0, config.trace ? 1 : 0,
              config.time_budget_s);

  const fuzz::SweepResult result = fuzz::run_sweep(config);

  const double rate =
      result.elapsed_s > 0.0 ? result.scenarios_run / result.elapsed_s : 0.0;
  std::printf("scenarios run     %10d%s\n", result.scenarios_run,
              result.budget_exhausted ? "  (time budget hit)" : "");
  std::printf("steps dispatched  %10llu\n",
              static_cast<unsigned long long>(result.steps_total));
  std::printf("violations        %10zu\n", result.failures.size());
  const struct {
    const char* label;
    const char* json_key;
    std::uint64_t total;
  } recovery[] = {
      {"service restarts", "service_restarts",
       result.recovery.service_restarts},
      {"ANR kills", "anr_kills", result.recovery.anr_kills},
      {"binder failures", "binder_failures", result.recovery.binder_failures},
      {"broadcast drops", "broadcast_drops",
       result.recovery.broadcasts_dropped},
      {"alarm deferrals", "alarm_deferrals", result.recovery.alarms_delayed},
  };
  for (const auto& row : recovery) {
    std::printf("%-17s %10llu\n", row.label,
                static_cast<unsigned long long>(row.total));
  }
  std::printf("wall              %9.1fs  (%.2f scenarios/s)\n\n",
              result.elapsed_s, rate);

  std::printf("oracle-leg breakdown (summed wall seconds):\n");
  for (const fuzz::LegTiming& leg : result.leg_seconds) {
    std::printf("  %-24s %8.2fs\n", leg.leg.c_str(), leg.seconds);
  }

  int shrink_candidates = 0;
  for (const fuzz::SweepFailure& failure : result.failures) {
    shrink_candidates += failure.shrink_stats.candidates;
    std::printf("\nFAIL seed %llu: %zu steps -> %zu after shrink "
                "(%d candidates tried)\n",
                static_cast<unsigned long long>(failure.seed),
                failure.original.steps.size(), failure.shrunk.steps.size(),
                failure.shrink_stats.candidates);
    for (const std::string& what : failure.what) {
      std::printf("  %s\n", what.c_str());
    }
    if (!failure.artifact_path.empty()) {
      std::printf("  reproducer: %s\n", failure.artifact_path.c_str());
    }
  }

  if (std::FILE* json = std::fopen(out_path.c_str(), "w")) {
    std::fprintf(json,
                 "{\n"
                 "  \"seeds_run\": %d,\n"
                 "  \"steps_dispatched\": %llu,\n"
                 "  \"violations\": %zu,\n",
                 result.scenarios_run,
                 static_cast<unsigned long long>(result.steps_total),
                 result.failures.size());
    for (const auto& row : recovery) {
      std::fprintf(json, "  \"%s\": %llu,\n", row.json_key,
                   static_cast<unsigned long long>(row.total));
    }
    std::fprintf(json,
                 "  \"budget_exhausted\": %s,\n"
                 "  \"wall_seconds\": %.2f,\n"
                 "  \"scenarios_per_s\": %.3f,\n"
                 "  \"shrink_candidates\": %d,\n"
                 "  \"legs_seconds\": {",
                 result.budget_exhausted ? "true" : "false", result.elapsed_s,
                 rate, shrink_candidates);
    for (std::size_t i = 0; i < result.leg_seconds.size(); ++i) {
      std::fprintf(json, "%s\n    \"%s\": %.3f", i == 0 ? "" : ",",
                   result.leg_seconds[i].leg.c_str(),
                   result.leg_seconds[i].seconds);
    }
    std::fprintf(json, "\n  }\n}\n");
    std::fclose(json);
    std::printf("\nwrote %s\n", out_path.c_str());
  }

  return result.ok() ? 0 : 1;
}
