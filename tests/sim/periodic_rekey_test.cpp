// The periodic event's in-place re-key (the `metering` ctest label: the
// 250 ms metering timer is the queue's hottest periodic). The node stays
// at the heap root while its callback runs and is re-keyed afterwards;
// these pin the orderings and the slot lifetime that makes safe. The
// callback may also take its following firings itself
// (Simulator::refire_in_place); the RefireInPlace tests pin when it may
// — before every other pending event, within run_until's bound, while
// the timer is live — and that the dispatches it runs are counted and
// traced exactly as the run loop's.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
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

// Each RefireInPlace callback caps its own loop, so a refire that fails
// to refuse ends the test instead of spinning.
constexpr int kLoopCap = 1000;

TEST(RefireInPlaceTest, AnEventScheduledAtTheNextFiringRunsBeforeIt) {
  Simulator sim;
  std::vector<std::string> order;
  int in_place = 0;
  auto stop = sim.every(millis(10), [&] {
    for (int i = 0; i < kLoopCap; ++i) {
      const std::int64_t at = sim.now().millis();
      order.push_back("tick@" + std::to_string(at));
      // At 10 the callback schedules an event at its next firing's
      // instant, at 30 one just after it.
      if (at == 10) {
        sim.schedule(millis(10), [&] { order.push_back("event@20"); });
      }
      if (at == 30) {
        sim.schedule(millis(10) + micros(1),
                     [&] { order.push_back("event@40+1us"); });
      }
      if (!sim.refire_in_place()) return;
      ++in_place;
    }
  });
  sim.run_for(millis(50));
  // The event at 20 took its sequence number first, so the firing at 20
  // yields to it and returns to the loop; the one at 40 runs in place.
  EXPECT_EQ(order, (std::vector<std::string>{"tick@10", "event@20", "tick@20",
                                             "tick@30", "tick@40",
                                             "event@40+1us", "tick@50"}));
  EXPECT_EQ(in_place, 2);  // 30 and 40
  stop();
}

TEST(RefireInPlaceTest, AFiringAtTheBoundRunsInPlaceOnePastItWaits) {
  Simulator sim;
  std::vector<std::int64_t> fired;
  std::vector<std::int64_t> in_place;
  auto stop = sim.every(millis(10), [&] {
    for (int i = 0; i < kLoopCap; ++i) {
      fired.push_back(sim.now().millis());
      if (!sim.refire_in_place()) return;
      in_place.push_back(sim.now().millis());
    }
  });
  sim.run_until(TimePoint() + millis(30));
  // 30 is the bound itself: in place. 40 lies past it.
  EXPECT_EQ(fired, (std::vector<std::int64_t>{10, 20, 30}));
  EXPECT_EQ(in_place, (std::vector<std::int64_t>{20, 30}));
  EXPECT_EQ(sim.now(), TimePoint() + millis(30));
  EXPECT_EQ(sim.events_dispatched(), 3u);

  // The firing at 40 waits for the next run, which dispatches it.
  sim.run_until(TimePoint() + millis(45));
  EXPECT_EQ(fired, (std::vector<std::int64_t>{10, 20, 30, 40}));
  EXPECT_EQ(in_place.size(), 2u);
  EXPECT_EQ(sim.now(), TimePoint() + millis(45));
  sim.run_until(TimePoint() + millis(70));
  EXPECT_EQ(fired, (std::vector<std::int64_t>{10, 20, 30, 40, 50, 60, 70}));
  EXPECT_EQ(in_place, (std::vector<std::int64_t>{20, 30, 60, 70}));
  EXPECT_EQ(sim.events_dispatched(), 7u);
  stop();
}

TEST(RefireInPlaceTest, ANestedRunBoundsOnlyItsOwnFirings) {
  // A one-shot callback may run the loop itself; inside, its bound holds,
  // and once it returns the enclosing run's bound is back.
  Simulator sim;
  std::vector<std::int64_t> fired;
  std::vector<std::int64_t> in_place;
  auto stop = sim.every(millis(10), [&] {
    for (int i = 0; i < kLoopCap; ++i) {
      fired.push_back(sim.now().millis());
      if (!sim.refire_in_place()) return;
      in_place.push_back(sim.now().millis());
    }
  });
  std::vector<std::int64_t> after_nested;
  sim.schedule(millis(5), [&] {
    sim.run_until(TimePoint() + millis(25));
    after_nested = fired;
  });
  sim.run_until(TimePoint() + millis(60));
  EXPECT_EQ(after_nested, (std::vector<std::int64_t>{10, 20}));
  EXPECT_EQ(fired, (std::vector<std::int64_t>{10, 20, 30, 40, 50, 60}));
  EXPECT_EQ(in_place, (std::vector<std::int64_t>{20, 40, 50, 60}));
  EXPECT_EQ(sim.now(), TimePoint() + millis(60));
  // Every firing and the one-shot were dispatched once.
  EXPECT_EQ(sim.events_dispatched(), 7u);
  stop();
}

TEST(RefireInPlaceTest, APeriodicThatCancelsItselfEndsTheLoop) {
  Simulator sim;
  std::vector<std::int64_t> fired;
  std::function<void()> stop;
  bool refused_after_cancel = false;
  stop = sim.every(millis(10), [&] {
    for (int i = 0; i < kLoopCap; ++i) {
      fired.push_back(sim.now().millis());
      if (fired.size() == 3) {
        stop();
        refused_after_cancel = !sim.refire_in_place();
        return;
      }
      if (!sim.refire_in_place()) return;
    }
  });
  bool later = false;
  sim.schedule(millis(100), [&] { later = true; });
  sim.run_for(millis(200));
  EXPECT_TRUE(refused_after_cancel);
  EXPECT_EQ(fired, (std::vector<std::int64_t>{10, 20, 30}));
  EXPECT_TRUE(later);
  EXPECT_FALSE(sim.has_pending());
  EXPECT_EQ(sim.events_dispatched(), 4u);
}

TEST(RefireInPlaceTest, OutsideAPeriodicCallbackOrARunItRefuses) {
  Simulator sim;
  int fired = 0;
  auto stop = sim.every(millis(10), [&] { ++fired; });
  // Outside run_until, with the periodic pending.
  EXPECT_FALSE(sim.refire_in_place());
  EXPECT_EQ(sim.now(), TimePoint());
  // Inside run_until, from a one-shot callback.
  bool one_shot_refused = false;
  sim.schedule(millis(5), [&] { one_shot_refused = !sim.refire_in_place(); });
  sim.run_for(millis(30));
  EXPECT_TRUE(one_shot_refused);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.events_dispatched(), 4u);
  EXPECT_FALSE(sim.refire_in_place());
  EXPECT_EQ(sim.now(), TimePoint() + millis(30));
  stop();

  // The queue alone: no periodic running, nothing moves.
  EventQueue q;
  q.push_periodic(TimePoint(10), Duration(10), [] {});
  EXPECT_FALSE(q.refire_running(TimePoint(1000)));
  EXPECT_EQ(q.next_time(), TimePoint(10));
  // A running periodic whose next firing (8) is due before the other
  // event (10) but past the bound it is given stays put; within the
  // bound it moves.
  std::vector<bool> refired;
  q.push_periodic(TimePoint(5), Duration(3), [&] {
    refired.push_back(q.refire_running(TimePoint(7)));
    refired.push_back(q.refire_running(TimePoint(8)));
    EXPECT_EQ(q.next_time(), TimePoint(8));
  });
  q.fire_front();
  EXPECT_EQ(refired, (std::vector<bool>{false, true}));
  EXPECT_EQ(q.next_time(), TimePoint(10));
  q.fire_front();  // the first periodic, at 10
  EXPECT_EQ(q.next_time(), TimePoint(11));
}

/// One sim.dispatch mark as the trace holds it, with the callback's own
/// marks kept in between to pin the relative order.
struct Mark {
  std::int64_t t_us;
  std::int64_t arg;
  std::uint32_t name;
  bool operator==(const Mark&) const = default;
};

/// A traced simulator whose periodic callback optionally runs its
/// following firings in place. The same schedule is replayed on both.
struct TracedRun {
  explicit TracedRun(bool in_place) : in_place(in_place) {
    sim.set_observability(&trace, &metrics);
    tick_name = trace.intern("test.tick");
  }

  void run() {
    stop = sim.every(millis(10), [this] {
      for (int i = 0; i < kLoopCap; ++i) {
        const std::int64_t at = sim.now().millis();
        trace.record(obs::TraceCategory::kSim, tick_name, -1,
                     static_cast<std::int64_t>(sim.events_dispatched()),
                     sim.now().micros());
        // Vary the queue depth: events past the next firing, one at it.
        if (at % 70 == 0) sim.schedule(millis(35), [] {});
        if (at % 90 == 0) sim.schedule(millis(10), [] {});
        if (!in_place || !sim.refire_in_place()) return;
        ++refired;
      }
    });
    for (const int ms : {3, 17, 41, 100, 101, 333}) {
      sim.schedule(millis(ms), [] {});
    }
    // Bounds on a firing, between firings, and a long one.
    for (const int until : {30, 55, 130, 131, 600}) {
      sim.run_until(TimePoint() + millis(until));
    }
    stop();
  }

  std::vector<Mark> marks() const {
    std::vector<Mark> out;
    trace.for_each([&out](const obs::TraceEvent& e) {
      out.push_back({e.t_us, e.arg, e.name});
    });
    return out;
  }

  bool in_place;
  Simulator sim;
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  std::uint32_t tick_name = 0;
  std::function<void()> stop;
  int refired = 0;
};

TEST(RefireInPlaceTest, InPlaceDispatchIsTracedAndCountedLikeTheRunLoop) {
  TracedRun looped(true);
  TracedRun plain(false);
  looped.run();
  plain.run();
  EXPECT_GT(looped.refired, 30);
  EXPECT_EQ(plain.refired, 0);
  // Same dispatch marks (instant and queue depth), in the same order
  // around the callback's own marks, which carry the dispatch count the
  // callback saw.
  ASSERT_EQ(looped.trace.names().routine_count(),
            plain.trace.names().routine_count());
  EXPECT_EQ(looped.marks(), plain.marks());
  EXPECT_EQ(looped.sim.events_dispatched(), plain.sim.events_dispatched());
  EXPECT_EQ(looped.metrics.counter_value("sim.events_dispatched"),
            plain.metrics.counter_value("sim.events_dispatched"));
  EXPECT_EQ(looped.metrics.counter_value("sim.events_dispatched"),
            looped.sim.events_dispatched());
  EXPECT_EQ(looped.sim.now(), plain.sim.now());
}

}  // namespace
}  // namespace eandroid::sim
