#include "kernel/cpu_sched.h"

#include <gtest/gtest.h>

#include "sim/simulator.h"

namespace eandroid::kernelsim {
namespace {

class CpuSchedTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
  ProcessTable processes_;
  CpuScheduler cpu_{sim_, processes_};
};

TEST_F(CpuSchedTest, IdleWindowReportsZero) {
  sim_.run_for(sim::seconds(1));
  const CpuWindow window = cpu_.sample_window();
  EXPECT_DOUBLE_EQ(window.total_utilization, 0.0);
  EXPECT_TRUE(window.shares.empty());
}

TEST_F(CpuSchedTest, SteadyLoadReportsItsDuty) {
  const Pid pid = processes_.spawn(Uid{10000}, "a");
  cpu_.add_load(pid, 0.3);
  sim_.run_for(sim::seconds(1));
  const CpuWindow window = cpu_.sample_window();
  EXPECT_NEAR(window.total_utilization, 0.3, 1e-9);
  EXPECT_NEAR(window.share_of(Uid{10000}), 0.3, 1e-9);
}

TEST_F(CpuSchedTest, DemandSaturatesAtOneCore) {
  const Pid a = processes_.spawn(Uid{10000}, "a");
  const Pid b = processes_.spawn(Uid{10001}, "b");
  cpu_.add_load(a, 0.8);
  cpu_.add_load(b, 0.8);
  sim_.run_for(sim::seconds(1));
  const CpuWindow window = cpu_.sample_window();
  EXPECT_NEAR(window.total_utilization, 1.0, 1e-9);
  EXPECT_NEAR(window.share_of(Uid{10000}), 0.5, 1e-9);
  EXPECT_NEAR(window.share_of(Uid{10001}), 0.5, 1e-9);
}

TEST_F(CpuSchedTest, DeadProcessLoadStopsCounting) {
  const Pid pid = processes_.spawn(Uid{10000}, "a");
  cpu_.add_load(pid, 0.5);
  processes_.kill(pid);
  sim_.run_for(sim::seconds(1));
  EXPECT_DOUBLE_EQ(cpu_.sample_window().total_utilization, 0.0);
}

TEST_F(CpuSchedTest, RemoveLoadStopsCounting) {
  const Pid pid = processes_.spawn(Uid{10000}, "a");
  const LoadHandle h = cpu_.add_load(pid, 0.5);
  cpu_.remove_load(h);
  sim_.run_for(sim::seconds(1));
  EXPECT_DOUBLE_EQ(cpu_.sample_window().total_utilization, 0.0);
}

TEST_F(CpuSchedTest, SetDutyAdjustsLoad) {
  const Pid pid = processes_.spawn(Uid{10000}, "a");
  const LoadHandle h = cpu_.add_load(pid, 0.5);
  cpu_.set_duty(h, 0.2);
  sim_.run_for(sim::seconds(1));
  EXPECT_NEAR(cpu_.sample_window().total_utilization, 0.2, 1e-9);
}

TEST_F(CpuSchedTest, DutyIsClamped) {
  const Pid pid = processes_.spawn(Uid{10000}, "a");
  cpu_.add_load(pid, 3.0);
  EXPECT_DOUBLE_EQ(cpu_.instantaneous_utilization(), 1.0);
}

TEST_F(CpuSchedTest, BurstSpreadsOverWindow) {
  const Pid pid = processes_.spawn(Uid{10000}, "a");
  cpu_.sample_window();
  cpu_.charge_burst(pid, sim::millis(100));
  sim_.run_for(sim::seconds(1));
  const CpuWindow window = cpu_.sample_window();
  EXPECT_NEAR(window.total_utilization, 0.1, 1e-9);
}

TEST_F(CpuSchedTest, BurstsAreConsumedByOneWindow) {
  const Pid pid = processes_.spawn(Uid{10000}, "a");
  cpu_.charge_burst(pid, sim::millis(100));
  sim_.run_for(sim::seconds(1));
  cpu_.sample_window();
  sim_.run_for(sim::seconds(1));
  EXPECT_DOUBLE_EQ(cpu_.sample_window().total_utilization, 0.0);
}

TEST_F(CpuSchedTest, SuspendFreezesEverything) {
  const Pid pid = processes_.spawn(Uid{10000}, "a");
  cpu_.add_load(pid, 0.7);
  cpu_.set_suspended(true);
  sim_.run_for(sim::seconds(1));
  EXPECT_DOUBLE_EQ(cpu_.sample_window().total_utilization, 0.0);
  EXPECT_DOUBLE_EQ(cpu_.instantaneous_utilization(), 0.0);
  cpu_.set_suspended(false);
  EXPECT_NEAR(cpu_.instantaneous_utilization(), 0.7, 1e-9);
}

TEST_F(CpuSchedTest, SuspendedBurstsAreDropped) {
  const Pid pid = processes_.spawn(Uid{10000}, "a");
  cpu_.set_suspended(true);
  cpu_.charge_burst(pid, sim::millis(500));
  cpu_.set_suspended(false);
  sim_.run_for(sim::seconds(1));
  EXPECT_DOUBLE_EQ(cpu_.sample_window().total_utilization, 0.0);
}

TEST_F(CpuSchedTest, SharesSumToTotal) {
  const Pid a = processes_.spawn(Uid{10000}, "a");
  const Pid b = processes_.spawn(Uid{10001}, "b");
  cpu_.add_load(a, 0.25);
  cpu_.add_load(b, 0.35);
  sim_.run_for(sim::seconds(1));
  const CpuWindow window = cpu_.sample_window();
  double sum = 0.0;
  for (const auto& s : window.shares) sum += s.share;
  EXPECT_NEAR(sum, window.total_utilization, 1e-9);
}

TEST_F(CpuSchedTest, MidWindowDutyChangeIsTimeWeighted) {
  const Pid pid = processes_.spawn(Uid{10000}, "a");
  const LoadHandle h = cpu_.add_load(pid, 0.8);
  sim_.run_for(sim::millis(250));
  cpu_.set_duty(h, 0.2);
  sim_.run_for(sim::millis(750));
  // 0.8 for a quarter of the window + 0.2 for three quarters = 0.35.
  EXPECT_NEAR(cpu_.sample_window().total_utilization, 0.35, 1e-9);
}

TEST_F(CpuSchedTest, SuspendMidWindowIsProrated) {
  const Pid pid = processes_.spawn(Uid{10000}, "a");
  cpu_.add_load(pid, 0.6);
  sim_.run_for(sim::millis(500));
  cpu_.set_suspended(true);
  sim_.run_for(sim::millis(500));
  EXPECT_NEAR(cpu_.sample_window().total_utilization, 0.3, 1e-9);
}

TEST_F(CpuSchedTest, DeathMidWindowIsProrated) {
  const Pid pid = processes_.spawn(Uid{10000}, "a");
  cpu_.add_load(pid, 0.4);
  sim_.run_for(sim::millis(500));
  processes_.kill(pid);
  sim_.run_for(sim::millis(500));
  const CpuWindow window = cpu_.sample_window();
  EXPECT_NEAR(window.total_utilization, 0.2, 1e-9);
  EXPECT_NEAR(window.share_of(Uid{10000}), 0.2, 1e-9);
}

TEST_F(CpuSchedTest, RemoveLoadMidWindowIsProrated) {
  const Pid pid = processes_.spawn(Uid{10000}, "a");
  const LoadHandle h = cpu_.add_load(pid, 1.0);
  sim_.run_for(sim::millis(100));
  cpu_.remove_load(h);
  sim_.run_for(sim::millis(900));
  EXPECT_NEAR(cpu_.sample_window().total_utilization, 0.1, 1e-9);
}

TEST_F(CpuSchedTest, LoadsSharingACellSumInCreationOrder) {
  // Three loads in one (app, routine) cell whose floating-point sum
  // depends on order: (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1. The load
  // table is ordered by handle id, so the cell accrues in creation order.
  ASSERT_NE((0.1 + 0.2) + 0.3, (0.3 + 0.2) + 0.1);
  const Pid pid = processes_.spawn(Uid{10000}, "a");
  cpu_.add_load(pid, 0.1, "work");
  cpu_.add_load(pid, 0.2, "work");
  cpu_.add_load(pid, 0.3, "work");
  sim_.run_for(sim::seconds(1));
  const CpuWindow& window = cpu_.sample_window();
  EXPECT_EQ(window.total_utilization, (0.1 + 0.2) + 0.3);
  ASSERT_EQ(window.routine_shares.size(), 1u);
  EXPECT_EQ(window.routine_shares[0].share, (0.1 + 0.2) + 0.3);
}

TEST_F(CpuSchedTest, UnchangedWindowIsReused) {
  const Pid pid = processes_.spawn(Uid{10000}, "a");
  cpu_.add_load(pid, 0.3);
  sim_.run_for(sim::millis(250));
  cpu_.sample_window();  // holds the add_load: computed, not clean
  EXPECT_FALSE(cpu_.window_reused());
  sim_.run_for(sim::millis(250));
  const double first = cpu_.sample_window().total_utilization;
  EXPECT_FALSE(cpu_.window_reused());
  for (int i = 0; i < 3; ++i) {
    sim_.run_for(sim::millis(250));
    EXPECT_EQ(cpu_.sample_window().total_utilization, first);
    EXPECT_TRUE(cpu_.window_reused());
  }
  // A different window length recomputes.
  sim_.run_for(sim::millis(100));
  EXPECT_NEAR(cpu_.sample_window().total_utilization, 0.3, 1e-9);
  EXPECT_FALSE(cpu_.window_reused());
}

TEST_F(CpuSchedTest, MutationRecomputesTheNextTwoWindows) {
  const Pid pid = processes_.spawn(Uid{10000}, "a");
  const LoadHandle h = cpu_.add_load(pid, 0.8);
  const auto settle = [this] {
    for (int i = 0; i < 3; ++i) {
      sim_.run_for(sim::millis(250));
      cpu_.sample_window();
    }
    ASSERT_TRUE(cpu_.window_reused());
  };
  settle();
  // Mid-window duty change: the window holding it is time-weighted, and
  // the next one cannot reuse it.
  sim_.run_for(sim::millis(50));
  cpu_.set_duty(h, 0.2);
  sim_.run_for(sim::millis(200));
  EXPECT_NEAR(cpu_.sample_window().total_utilization, 0.32, 1e-9);
  EXPECT_FALSE(cpu_.window_reused());
  sim_.run_for(sim::millis(250));
  EXPECT_NEAR(cpu_.sample_window().total_utilization, 0.2, 1e-9);
  EXPECT_FALSE(cpu_.window_reused());
  sim_.run_for(sim::millis(250));
  EXPECT_NEAR(cpu_.sample_window().total_utilization, 0.2, 1e-9);
  EXPECT_TRUE(cpu_.window_reused());

  // A burst: consumed by its window, absent from the next.
  sim_.run_for(sim::millis(100));
  cpu_.charge_burst(pid, sim::millis(25));
  sim_.run_for(sim::millis(150));
  EXPECT_NEAR(cpu_.sample_window().total_utilization, 0.3, 1e-9);
  EXPECT_FALSE(cpu_.window_reused());
  sim_.run_for(sim::millis(250));
  EXPECT_NEAR(cpu_.sample_window().total_utilization, 0.2, 1e-9);
  EXPECT_FALSE(cpu_.window_reused());
  sim_.run_for(sim::millis(250));
  cpu_.sample_window();
  EXPECT_TRUE(cpu_.window_reused());
}

TEST_F(CpuSchedTest, LoadBeforeItsProcessIsNeverReused) {
  // The load resolves when its process spawns, which is no scheduler
  // call: a window with an unresolved load must not be reused.
  const Pid probe = processes_.spawn(Uid{10000}, "probe");
  processes_.kill(probe);
  const Pid future{probe.value + 1};
  cpu_.add_load(future, 0.5);
  for (int i = 0; i < 3; ++i) {
    sim_.run_for(sim::millis(250));
    EXPECT_DOUBLE_EQ(cpu_.sample_window().total_utilization, 0.0);
    EXPECT_FALSE(cpu_.window_reused());
  }
  ASSERT_EQ(processes_.spawn(Uid{10000}, "a"), future);
  sim_.run_for(sim::millis(250));
  EXPECT_NEAR(cpu_.sample_window().total_utilization, 0.5, 1e-9);
  EXPECT_FALSE(cpu_.window_reused());
}

TEST_F(CpuSchedTest, ZeroLengthWindowIsEmpty) {
  const Pid pid = processes_.spawn(Uid{10000}, "a");
  cpu_.add_load(pid, 0.5);
  cpu_.sample_window();
  const CpuWindow window = cpu_.sample_window();
  EXPECT_DOUBLE_EQ(window.total_utilization, 0.0);
}

}  // namespace
}  // namespace eandroid::kernelsim
