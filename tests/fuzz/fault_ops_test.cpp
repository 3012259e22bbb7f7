// The grammar's six fault ops, each replayed through ProgramExecutor on
// one traced device: every op reaches the server subsystem it targets,
// and records exactly one `fault` trace mark named by its token, on the
// actor's uid (-1 for device-wide ops), with the op's `a` as its arg.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "fleet/device_context.h"
#include "framework/system_server.h"
#include "fuzz/executor.h"
#include "fuzz/program.h"
#include "obs/trace.h"

namespace eandroid::fuzz {
namespace {

struct FaultMark {
  std::string name;
  std::int32_t uid = 0;
  std::int64_t arg = 0;
  bool operator==(const FaultMark&) const = default;
};

void PrintTo(const FaultMark& mark, std::ostream* os) {
  *os << mark.name << " uid=" << mark.uid << " arg=" << mark.arg;
}

fleet::DeviceSpec traced_spec() {
  fleet::DeviceSpec spec;
  spec.obs.trace = true;
  return spec;
}

class FaultOpsTest : public ::testing::Test {
 protected:
  FaultOpsTest() : bed_(traced_spec()) {
    install_cast(bed_);
    bed_.start();
  }

  /// Arms a valid program of `steps`; the test advances time itself.
  void arm(std::vector<Step> steps) {
    ScenarioProgram program;
    program.steps = std::move(steps);
    program.horizon_us = program.steps.back().at_us + 1'000'000;
    std::vector<std::string> problems;
    ASSERT_TRUE(validate(program, &problems)) << problems.front();
    executor_ = std::make_unique<ProgramExecutor>(bed_, program);
    executor_->arm();
  }

  /// Advances to `t_us` after boot without closing the sample window.
  void advance_to(std::int64_t t_us) {
    bed_.advance_to(sim::TimePoint{} + sim::micros(t_us));
  }

  void expect_marks(std::vector<FaultMark> expected) const {
#if defined(EANDROID_TRACE_COMPILED_OUT)
    expected.clear();  // no trace site survives in this build
#endif
    const obs::TraceRecorder* trace = bed_.obs().trace();
    std::vector<FaultMark> marks;
    trace->for_each([&](const obs::TraceEvent& event) {
      if (event.category != obs::TraceCategory::kFault) return;
      marks.push_back({trace->names().routine_name(event.name), event.uid,
                       event.arg});
    });
    EXPECT_EQ(marks, expected);
  }

  kernelsim::Uid uid(int app) { return bed_.uid_of(kCastPackages[app]); }
  framework::SystemServer& server() { return bed_.server(); }

  fleet::DeviceContext bed_;
  std::unique_ptr<ProgramExecutor> executor_;
};

TEST_F(FaultOpsTest, KillAppInvalidatesThePid) {
  arm({{.at_us = 100'000, .op = OpKind::kUserLaunch, .app = 2},
       {.at_us = 200'000, .op = OpKind::kKillApp, .app = 2}});
  advance_to(150'000);
  ASSERT_TRUE(server().pid_of(uid(2)).valid());
  advance_to(250'000);
  EXPECT_FALSE(server().pid_of(uid(2)).valid());
  expect_marks({{"kill_app", uid(2).value, 0}});
}

TEST_F(FaultOpsTest, HangToggleAppliedTwiceFlipsAndFlipsBack) {
  arm({{.at_us = 100'000, .op = OpKind::kUserLaunch, .app = 1},
       {.at_us = 200'000, .op = OpKind::kHangToggle, .app = 1},
       {.at_us = 300'000, .op = OpKind::kHangToggle, .app = 1}});
  advance_to(250'000);
  EXPECT_TRUE(server().app_hung(uid(1)));
  advance_to(350'000);
  EXPECT_FALSE(server().app_hung(uid(1)));
  const FaultMark toggle{"hang_toggle", uid(1).value, 0};
  expect_marks({toggle, toggle});
}

TEST_F(FaultOpsTest, BinderFailWindowFailsTransactions) {
  arm({{.at_us = 100'000, .op = OpKind::kBinderFailWindow, .a = 3},
       {.at_us = 200'000, .op = OpKind::kStartService, .app = 1}});
  advance_to(300'000);
  EXPECT_GT(server().binder().failed_total(), 0u);
  expect_marks({{"binder_fail_window", -1, 3}});
}

TEST_F(FaultOpsTest, DropBroadcastsDropsDeliveries) {
  arm({{.at_us = 100'000, .op = OpKind::kRegisterReceiver, .app = 0},
       {.at_us = 200'000, .op = OpKind::kDropBroadcasts, .a = 2},
       {.at_us = 300'000, .op = OpKind::kSendBroadcast, .app = 1}});
  advance_to(1'000'000);
  EXPECT_GT(server().broadcasts().dropped_total(), 0u);
  expect_marks({{"drop_broadcasts", -1, 2}});
}

TEST_F(FaultOpsTest, DelayAlarmsDefersPendingAlarms) {
  arm({{.at_us = 100'000, .op = OpKind::kSetAlarm, .app = 0, .a = 5},
       {.at_us = 200'000, .op = OpKind::kDelayAlarms, .a = 1500}});
  advance_to(300'000);
  EXPECT_GT(server().alarms().delayed_total(), 0u);
  expect_marks({{"delay_alarms", -1, 1500}});
}

TEST_F(FaultOpsTest, BatteryExhaustEmptiesTheCellWithoutConsumingEnergy) {
  // Between two 250 ms sampler ticks, so no metering lands in between.
  arm({{.at_us = 1'100'000, .op = OpKind::kBatteryExhaust}});
  advance_to(1'050'000);
  const double consumed = server().battery().consumed_total_mj();
  ASSERT_GT(server().battery().percent(), 0);
  advance_to(1'150'000);
  EXPECT_EQ(server().battery().percent(), 0);
  EXPECT_EQ(server().battery().consumed_total_mj(), consumed);
  expect_marks({{"battery_exhaust", -1, 0}});
}

}  // namespace
}  // namespace eandroid::fuzz
