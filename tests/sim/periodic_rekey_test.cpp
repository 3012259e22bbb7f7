// The periodic event's in-place re-key (the `metering` ctest label: the
// 250 ms metering timer is the queue's hottest periodic). The node stays
// at the heap root while its callback runs and is re-keyed afterwards;
// these pin the orderings and the slot lifetime that makes safe.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/check.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace eandroid::sim {
namespace {

TEST(PeriodicRekeyTest, EventScheduledAtTheNextFiringFiresBeforeIt) {
  // Scheduled from the callback at now + period, the event takes a
  // sequence number before the re-key does: FIFO puts it first.
  EventQueue q;
  std::vector<std::string> order;
  int firings = 0;
  q.push_periodic(TimePoint(10), Duration(10), [&] {
    order.push_back("tick@" + std::to_string(10 * ++firings));
    if (firings == 1) {
      q.push(TimePoint(20), [&] { order.push_back("event@20"); });
    }
  });
  q.push(TimePoint(20), [&] { order.push_back("earlier@20"); });
  for (int i = 0; i < 5; ++i) q.fire_front();
  EXPECT_EQ(order, (std::vector<std::string>{"tick@10", "earlier@20",
                                             "event@20", "tick@20",
                                             "tick@30"}));
}

TEST(PeriodicRekeyTest, SelfCancelDuringCompactionReleasesTheSlotOnce) {
  EventQueue q;
  EventHandle self;
  int runs = 0;
  std::vector<EventHandle> ballast;
  self = q.push_periodic(TimePoint(5), Duration(5), [&] {
    ++runs;
    // The callback stops its own timer, then forces a compaction: more
    // cancelled events than live ones, past the 64 floor.
    EXPECT_TRUE(q.cancel(self));
    EXPECT_FALSE(q.cancel(self));
    for (int i = 0; i < 100; ++i) {
      ballast.push_back(q.push(TimePoint(1000 + i), [] {}));
    }
    for (const EventHandle h : ballast) EXPECT_TRUE(q.cancel(h));
    // Compaction kept the running node at the root.
    EXPECT_EQ(q.next_time(), TimePoint(5));
  });
  q.push(TimePoint(7), [] {});
  q.fire_front();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), TimePoint(7));
  EXPECT_FALSE(q.cancel(self));

  // Released exactly once: a slot on the free list twice would hand two
  // of the next pushes the same id. Every id is fresh, and the stopped
  // timer never fires again.
  std::set<std::uint64_t> ids{self.id};
  for (const EventHandle h : ballast) ids.insert(h.id);
  for (int i = 0; i < 101; ++i) {
    EXPECT_TRUE(ids.insert(q.push(TimePoint(8 + i), [] {}).id).second);
  }
  EXPECT_EQ(q.size(), 102u);
  while (!q.empty()) q.fire_front();
  EXPECT_EQ(runs, 1);
}

TEST(PeriodicRekeyTest, ThrowingCallbackIsConsumed) {
  EventQueue q;
  int runs = 0;
  const EventHandle h = q.push_periodic(TimePoint(1), Duration(1), [&] {
    ++runs;
    throw std::runtime_error("boom");
  });
  q.push(TimePoint(3), [] {});
  EXPECT_THROW(q.fire_front(), std::runtime_error);
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(q.cancel(h));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), TimePoint(3));
}

TEST(PeriodicRekeyTest, ReenteringTheRunLoopIsACheckedError) {
  Simulator sim;
  int runs = 0;
  auto stop = sim.every(millis(100), [&] {
    ++runs;
    sim.run_for(millis(1));
  });
  EXPECT_THROW(sim.run_for(seconds(1)), CheckFailure);
  EXPECT_EQ(runs, 1);
  // The failed periodic was consumed; the simulator stays usable.
  EXPECT_FALSE(sim.has_pending());
  stop();
  bool ran = false;
  sim.schedule(millis(1), [&] { ran = true; });
  sim.run_for(seconds(1));
  EXPECT_TRUE(ran);
}

TEST(PeriodicRekeyTest, SchedulingBeforeTheRunningPeriodicIsACheckedError) {
  EventQueue q;
  bool threw = false;
  q.push_periodic(TimePoint(10), Duration(10), [&] {
    try {
      q.push(TimePoint(9), [] {});
    } catch (const CheckFailure&) {
      threw = true;
    }
    q.push(TimePoint(10), [] {});  // the same instant is not the past
  });
  q.fire_front();
  EXPECT_TRUE(threw);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.next_time(), TimePoint(10));
}

}  // namespace
}  // namespace eandroid::sim
