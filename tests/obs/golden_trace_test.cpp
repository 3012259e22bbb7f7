// Golden-trace regression suite.
//
// Each case replays a canonical workload with tracing on and compares
// the deterministic text export byte-for-byte against a checked-in
// golden in tests/obs/golden/*.trace. A drifting trace is a change to
// the simulator's observable event history — sometimes intended, always
// worth a diff in review.
//
// When a golden legitimately changes, regenerate with either of:
//
//   build/tests/golden_trace_tests --update-golden
//   EANDROID_UPDATE_GOLDEN=1 ctest -R GoldenTrace
//
// which rewrites tests/obs/golden/ in the source tree; commit the new
// files with the change that moved them. On failure the suite writes
// the actual bytes, a line-level diff, and the Perfetto-loadable Chrome
// JSON form into obs_artifacts/ (uploaded by CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "apps/scenarios.h"
#include "apps/testbed.h"
#include "fuzz/executor.h"
#include "fuzz/program.h"

namespace eandroid::obs {

// Set by main(); lives outside the anonymous namespace so main can see it.
bool g_update_golden = false;

namespace {

std::string golden_path(const std::string& name) {
  return std::string(EANDROID_GOLDEN_DIR) + "/" + name + ".trace";
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out << bytes;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Line-level diff, capped: `-` lines come from the golden, `+` lines
/// from the actual trace.
std::string line_diff(const std::vector<std::string>& expected,
                      const std::vector<std::string>& actual,
                      int max_hunks = 40) {
  std::ostringstream out;
  const std::size_t n = std::max(expected.size(), actual.size());
  int hunks = 0;
  for (std::size_t i = 0; i < n && hunks < max_hunks; ++i) {
    const std::string* e = i < expected.size() ? &expected[i] : nullptr;
    const std::string* a = i < actual.size() ? &actual[i] : nullptr;
    if (e != nullptr && a != nullptr && *e == *a) continue;
    ++hunks;
    out << "line " << (i + 1) << ":\n";
    if (e != nullptr) out << "  -" << *e << "\n";
    if (a != nullptr) out << "  +" << *a << "\n";
  }
  if (hunks == max_hunks) out << "... (diff truncated)\n";
  return out.str();
}

/// Compares `actual` against the named golden; in update mode rewrites
/// the golden instead. `chrome_json` (may be empty) is saved as a CI
/// artifact alongside the diff when the comparison fails.
void check_golden(const std::string& name, const std::string& actual,
                  const std::string& chrome_json) {
  ASSERT_FALSE(actual.empty()) << name << ": tracing produced no bytes";
  const std::string path = golden_path(name);
  if (g_update_golden) {
    write_file(path, actual);
    return;
  }
  std::string expected;
  if (!read_file(path, &expected)) {
    FAIL() << "missing golden " << path
           << " — regenerate with --update-golden";
  }
  if (expected == actual) return;

  const std::vector<std::string> expected_lines = lines_of(expected);
  const std::vector<std::string> actual_lines = lines_of(actual);
  const std::string diff = line_diff(expected_lines, actual_lines);

  std::error_code ec;
  std::filesystem::create_directories("obs_artifacts", ec);
  write_file("obs_artifacts/" + name + ".actual.trace", actual);
  write_file("obs_artifacts/" + name + ".diff.txt", diff);
  if (!chrome_json.empty()) {
    write_file("obs_artifacts/" + name + ".chrome.json", chrome_json);
  }

  FAIL() << name << " drifted from " << path << " (" << expected_lines.size()
         << " golden lines, " << actual_lines.size()
         << " actual); full diff + Chrome JSON in obs_artifacts/.\n"
         << diff;
}

apps::TestbedOptions traced_base() {
  apps::TestbedOptions base;
  base.obs.trace = true;
  base.obs.trace_capacity = 1u << 18;
  return base;
}

TEST(GoldenTraceTest, Scene1MessageFilmsVideo) {
  const apps::ScenarioResult result = apps::run_scene1(1, traced_base());
  check_golden("scene1", result.trace_text, result.trace_json);
}

TEST(GoldenTraceTest, Attack3BindService) {
  const apps::ScenarioResult result = apps::run_attack3(1, traced_base());
  check_golden("attack3", result.trace_text, result.trace_json);
}

TEST(GoldenTraceTest, Attack6WakelockLeak) {
  const apps::ScenarioResult result =
      apps::run_attack6(1, /*release_lock=*/false, traced_base());
  check_golden("attack6", result.trace_text, result.trace_json);
}

TEST(GoldenTraceTest, FaultProgram) {
  // A committed generated program holding all six fault ops; its replay
  // restarts a crashed service and ANR-kills a hung app, so the golden
  // pins the fault marks and the recovery events they cause.
  std::string text;
  ASSERT_TRUE(read_file(std::string(EANDROID_GOLDEN_DIR) +
                            "/fault_program.prog",
                        &text));
  fuzz::ScenarioProgram program;
  std::string error;
  ASSERT_TRUE(fuzz::ScenarioProgram::parse(text, &program, &error)) << error;
  for (fuzz::OpKind op :
       {fuzz::OpKind::kKillApp, fuzz::OpKind::kHangToggle,
        fuzz::OpKind::kBinderFailWindow, fuzz::OpKind::kDropBroadcasts,
        fuzz::OpKind::kDelayAlarms, fuzz::OpKind::kBatteryExhaust}) {
    EXPECT_TRUE(std::any_of(
        program.steps.begin(), program.steps.end(),
        [op](const fuzz::Step& step) { return step.op == op; }))
        << "no " << fuzz::to_string(op) << " step";
  }

  apps::TestbedOptions options = traced_base();
  options.seed = program.seed;
  apps::Testbed bed(options);
  fuzz::install_cast(bed);
  bed.start();
  fuzz::ProgramExecutor(bed, program).run();
  EXPECT_GE(bed.server().services().restarts_total(), 1u);
  EXPECT_GE(bed.server().anr_kills(), 1u);
  check_golden("fault_program", bed.trace_text(), bed.chrome_trace());
}

}  // namespace
}  // namespace eandroid::obs

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--update-golden") {
      eandroid::obs::g_update_golden = true;
    }
  }
  if (const char* env = std::getenv("EANDROID_UPDATE_GOLDEN")) {
    if (env[0] == '1') eandroid::obs::g_update_golden = true;
  }
  return RUN_ALL_TESTS();
}
