#include "fuzz/suite.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <thread>

#include "exp/parallel_runner.h"
#include "fuzz/generator.h"
#include "sim/check.h"

namespace eandroid::fuzz {

namespace {

bool parse_bool(const std::string& value, bool* out) {
  if (value == "1" || value == "true") {
    *out = true;
    return true;
  }
  if (value == "0" || value == "false") {
    *out = false;
    return true;
  }
  return false;
}

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

// Caps that keep run_sweep's int arithmetic in range: a batch is
// threads * 4 seeds, and `done + batch` must not pass INT_MAX. The step
// cap keeps the generator's `max_steps - min_steps + 1` in range too.
constexpr unsigned kMaxThreads = 1024;
constexpr int kMaxSeeds = 1'000'000'000;
constexpr int kMaxSteps = 1'000'000;

/// Reads all of `value` as a number in [lo, hi]; NaN is never in range.
/// `out` is written only on success.
template <typename T>
bool parse_number(const std::string& value, T lo, T hi, T* out) {
  T parsed{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (ec != std::errc() || ptr != end || !(parsed >= lo && parsed <= hi)) {
    return false;
  }
  *out = parsed;
  return true;
}

}  // namespace

bool SweepConfig::parse(const std::string& text, SweepConfig* out,
                        std::string* error) {
  const auto fail = [error](int line, const std::string& why) {
    if (error != nullptr) {
      std::ostringstream msg;
      msg << "line " << line << ": " << why;
      *error = msg.str();
    }
    return false;
  };
  SweepConfig config;
  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  int steps_line = 0;  // last line that set min_steps or max_steps
  while (std::getline(in, raw)) {
    ++line_no;
    const std::string line = trim(raw);
    if (line.empty() || line[0] == '#') continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) return fail(line_no, "expected key = value");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (value.empty()) return fail(line_no, "empty value for " + key);
    // Each returns false, with the error set, when the value is rejected.
    const auto number = [&](auto lo, auto hi, auto* field,
                            const std::string& want) {
      return parse_number(value, lo, hi, field) ||
             fail(line_no, "bad number for " + key + ": " + value +
                               " (want " + want + ")");
    };
    const auto count = [&](int max, int* field) {
      return number(0, max, field, "0.." + std::to_string(max));
    };
    const auto flag = [&](bool* field) {
      return parse_bool(value, field) ||
             fail(line_no, "expected 0/1 for " + key);
    };
    bool ok = true;
    if (key == "first_seed") {
      ok = number(std::uint64_t{0}, std::numeric_limits<std::uint64_t>::max(),
                  &config.first_seed, "an unsigned 64-bit integer");
    } else if (key == "seeds") {
      ok = count(kMaxSeeds, &config.seeds);
    } else if (key == "min_steps") {
      ok = count(kMaxSteps, &config.min_steps);
      steps_line = line_no;
    } else if (key == "max_steps") {
      ok = count(kMaxSteps, &config.max_steps);
      steps_line = line_no;
    } else if (key == "single_legs") {
      ok = flag(&config.single_legs);
    } else if (key == "fleet_legs") {
      ok = flag(&config.fleet_legs);
    } else if (key == "trace") {
      ok = flag(&config.trace);
    } else if (key == "time_budget_s") {
      ok = number(0.0, std::numeric_limits<double>::max(),
                  &config.time_budget_s, "a finite number >= 0");
    } else if (key == "threads") {
      ok = number(0u, kMaxThreads, &config.threads,
                  "0.." + std::to_string(kMaxThreads));
    } else if (key == "shrink_failures") {
      ok = flag(&config.shrink_failures);
    } else if (key == "max_shrink_candidates") {
      ok = count(std::numeric_limits<int>::max(),
                 &config.max_shrink_candidates);
    } else if (key == "artifacts_dir") {
      config.artifacts_dir = value;
    } else {
      return fail(line_no, "unknown key: " + key);
    }
    if (!ok) return false;
  }
  if (config.min_steps > config.max_steps) {
    return fail(steps_line, "min_steps " + std::to_string(config.min_steps) +
                                " exceeds max_steps " +
                                std::to_string(config.max_steps));
  }
  *out = config;
  return true;
}

SweepResult run_sweep(const SweepConfig& config) {
  EANDROID_CHECK(config.seeds >= 0, "sweep seed count negative");
  OracleOptions oracle_options;
  oracle_options.single_legs = config.single_legs;
  oracle_options.fleet_legs = config.fleet_legs;
  oracle_options.trace = config.trace;

  const auto program_for = [&config](std::uint64_t seed) {
    GeneratorOptions gen;
    gen.seed = seed;
    gen.min_steps = config.min_steps;
    gen.max_steps = config.max_steps;
    return generate(gen);
  };

  struct SeedOutcome {
    std::uint64_t seed = 0;
    OracleVerdict verdict;
  };

  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  SweepResult result;
  std::map<std::string, double> leg_totals;
  const unsigned threads = config.threads != 0
                               ? config.threads
                               : std::thread::hardware_concurrency();
  const int batch = static_cast<int>(std::max(1u, threads)) * 4;

  for (int done = 0; done < config.seeds; done += batch) {
    if (config.time_budget_s > 0.0 && done > 0 &&
        elapsed() >= config.time_budget_s) {
      result.budget_exhausted = true;
      break;
    }
    const int count = std::min(batch, config.seeds - done);
    exp::RunnerOptions runner;
    runner.threads = config.threads;
    std::vector<SeedOutcome> outcomes = exp::run_indexed<SeedOutcome>(
        static_cast<std::size_t>(count),
        [&](std::size_t i) {
          SeedOutcome outcome;
          outcome.seed = config.first_seed +
                         static_cast<std::uint64_t>(done) +
                         static_cast<std::uint64_t>(i);
          outcome.verdict =
              run_oracle(program_for(outcome.seed), oracle_options);
          return outcome;
        },
        runner);

    for (SeedOutcome& outcome : outcomes) {
      ++result.scenarios_run;
      result.steps_total += outcome.verdict.steps_applied;
      result.recovery += outcome.verdict.recovery;
      for (const LegTiming& t : outcome.verdict.timings) {
        leg_totals[t.leg] += t.seconds;
      }
      if (outcome.verdict.ok()) continue;

      SweepFailure failure;
      failure.seed = outcome.seed;
      failure.original = program_for(outcome.seed);
      failure.what = outcome.verdict.failures;
      failure.what.insert(failure.what.end(),
                          outcome.verdict.invariant_violations.begin(),
                          outcome.verdict.invariant_violations.end());
      failure.shrunk = failure.original;
      if (config.shrink_failures) {
        ShrinkOptions shrink_options;
        shrink_options.max_candidates = config.max_shrink_candidates;
        failure.shrunk = shrink(
            failure.original,
            [&oracle_options](const ScenarioProgram& candidate) {
              return !run_oracle(candidate, oracle_options).ok();
            },
            &failure.shrink_stats, shrink_options);
      }
      if (!config.artifacts_dir.empty()) {
        std::filesystem::create_directories(config.artifacts_dir);
        std::ostringstream name;
        name << "shrunk_seed" << failure.seed << ".prog";
        const std::filesystem::path path =
            std::filesystem::path(config.artifacts_dir) / name.str();
        std::ofstream file(path);
        file << "# fuzz reproducer: seed " << failure.seed << "\n";
        for (const std::string& what : failure.what) {
          file << "# " << what << "\n";
        }
        file << failure.shrunk.serialize();
        failure.artifact_path = path.string();
      }
      result.failures.push_back(std::move(failure));
    }
  }

  for (const auto& [leg, seconds] : leg_totals) {
    result.leg_seconds.push_back({leg, seconds});
  }
  result.elapsed_s = elapsed();
  return result;
}

}  // namespace eandroid::fuzz
