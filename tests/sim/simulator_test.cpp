#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace eandroid::sim {
namespace {

TEST(SimulatorTest, ClockStartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), TimePoint());
}

TEST(SimulatorTest, RunForAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.run_for(seconds(10));
  EXPECT_EQ(sim.now(), TimePoint() + seconds(10));
}

TEST(SimulatorTest, ScheduledEventRunsAtItsTime) {
  Simulator sim;
  TimePoint fired;
  sim.schedule(millis(500), [&] { fired = sim.now(); });
  sim.run_for(seconds(1));
  EXPECT_EQ(fired, TimePoint() + millis(500));
}

TEST(SimulatorTest, EventsBeyondHorizonDoNotRun) {
  Simulator sim;
  bool ran = false;
  sim.schedule(seconds(2), [&] { ran = true; });
  sim.run_for(seconds(1));
  EXPECT_FALSE(ran);
  sim.run_for(seconds(1));
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, EventExactlyAtHorizonRuns) {
  Simulator sim;
  bool ran = false;
  sim.schedule(seconds(1), [&] { ran = true; });
  sim.run_for(seconds(1));
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  std::vector<std::int64_t> at;
  sim.schedule(millis(100), [&] {
    at.push_back(sim.now().millis());
    sim.schedule(millis(100), [&] { at.push_back(sim.now().millis()); });
  });
  sim.run_for(seconds(1));
  EXPECT_EQ(at, (std::vector<std::int64_t>{100, 200}));
}

TEST(SimulatorTest, CancelStopsScheduledEvent) {
  Simulator sim;
  bool ran = false;
  const EventHandle h = sim.schedule(millis(10), [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(h));
  sim.run_for(seconds(1));
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, ScheduleAtInThePastIsACheckedError) {
  Simulator sim;
  sim.run_for(seconds(5));
  EXPECT_THROW(sim.schedule_at(TimePoint() + seconds(1), [] {}),
               CheckFailure);
  // The current instant is not "the past": it fires on the next run.
  TimePoint fired;
  sim.schedule_at(sim.now(), [&] { fired = sim.now(); });
  sim.run_for(seconds(1));
  EXPECT_EQ(fired, TimePoint() + seconds(5));
}

TEST(SimulatorTest, EveryRepeatsUntilStopped) {
  Simulator sim;
  int count = 0;
  auto stop = sim.every(millis(100), [&] { ++count; });
  sim.run_for(millis(450));
  EXPECT_EQ(count, 4);
  stop();
  sim.run_for(seconds(1));
  EXPECT_EQ(count, 4);
}

TEST(SimulatorTest, EveryTasksInterleaveDeterministically) {
  Simulator sim;
  std::vector<int> order;
  sim.every(millis(100), [&] { order.push_back(1); });
  sim.every(millis(100), [&] { order.push_back(2); });
  sim.run_for(millis(200));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2}));
}

TEST(SimulatorTest, RunAllDrainsQueue) {
  Simulator sim;
  int count = 0;
  sim.schedule(seconds(100), [&] { ++count; });
  sim.schedule(seconds(200), [&] { ++count; });
  sim.run_until(TimePoint() + seconds(200));
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.has_pending());
  EXPECT_EQ(sim.now(), TimePoint() + seconds(200));
}

TEST(SimulatorTest, PendingEventsCountsQueue) {
  Simulator sim;
  sim.schedule(seconds(1), [] {});
  sim.schedule(seconds(2), [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
}

}  // namespace
}  // namespace eandroid::sim
