// e2e_profile: the repository's end-to-end benchmark (see README.md).
//
//   e2e_profile --workload fleet_campaign|paper_scenes
//               --seed N --seconds S --trace 0|1
//               [--span-dir DIR] [--git-sha SHA] [--source-sha SHA]
//   e2e_profile --selftest [--seed N]
//
// Fleet workers and runner threads are always nproc.
//
// Prints a "# machine" header line, then (traced runs) the per-layer
// ledger, then as its last line one JSON object: correct, attempted,
// failed and metrics. run.py builds this binary and checks that line
// against BENCHMARK.json.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

unsigned cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
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

/// Quotes a header value; the values are short identifiers and versions.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "e2e_profile: %s\nusage: e2e_profile --workload W --seed N "
               "--seconds S --trace 0|1 [--span-dir DIR]\n"
               "       e2e_profile --selftest [--seed N]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, span_dir = ".", git_sha, source_sha;
  e2e::RunConfig config;
  const unsigned nproc = cpu_count();
  config.workers = nproc;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      config.traced = std::strcmp(value, "0") != 0;
    } else if (arg == "--span-dir") {
      span_dir = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else if (arg == "--source-sha") {
      source_sha = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  std::printf("# machine {\"git_sha\":%s,\"source_sha256\":%s,\"compiler\":%s,"
              "\"build_type\":%s,\"nproc\":%u,\"workers\":%u,\"workload\":%s,"
              "\"seed\":%llu,\"seconds\":%g,\"trace\":%d}\n",
              git_sha.empty() ? "null" : quoted(git_sha).c_str(),
              source_sha.empty() ? "null" : quoted(source_sha).c_str(),
              quoted(compiler()).c_str(), quoted(EA_BENCH_BUILD_TYPE).c_str(),
              nproc, config.workers,
              quoted(selftest ? "selftest" : workload).c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.traced ? 1 : 0);
  std::fflush(stdout);
  if (selftest) {
    const int failures = e2e::run_selftest(config.seed, config.workers);
    std::printf("selftest: %s\n", failures == 0 ? "PASS" : "FAIL");
    return failures == 0 ? 0 : 1;
  }
  if (!(config.seconds > 0.0)) return usage("--seconds must be positive");

  config.span_path = span_dir + "/" + workload + "-seed" +
                     std::to_string(config.seed) + ".json";
  e2e::RunResult result;
  if (workload == "fleet_campaign") {
    result = e2e::run_fleet_campaign(config);
  } else if (workload == "paper_scenes") {
    result = e2e::run_paper_scenes(config);
  } else {
    return usage(("unknown workload '" + workload + "'").c_str());
  }

  if (config.traced) {
    const auto attempted = std::max<std::uint64_t>(1, result.attempted);
    result.add("failed_frac",
               static_cast<double>(result.failed) /
                   static_cast<double>(attempted),
               "frac");
  }
  for (const auto& [name, metric] : result.metrics) {
    if (!std::isfinite(metric.first)) {
      result.problem("metric " + name + " is not finite");
    }
  }
  for (const std::string& p : result.problems) {
    std::printf("# check failed: %s\n", p.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  const char* sep = "";
  for (const auto& [name, metric] : result.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(),
                std::isfinite(metric.first) ? metric.first : 0.0,
                metric.second.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}
