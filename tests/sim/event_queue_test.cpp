#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

namespace eandroid::sim {
namespace {

TEST(EventQueueTest, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(TimePoint(300), [&] { order.push_back(3); });
  q.push(TimePoint(100), [&] { order.push_back(1); });
  q.push(TimePoint(200), [&] { order.push_back(2); });
  while (!q.empty()) q.fire_front();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameInstantIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.push(TimePoint(42), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.fire_front();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, NextTimeReportsEarliest) {
  EventQueue q;
  q.push(TimePoint(500), [] {});
  q.push(TimePoint(50), [] {});
  EXPECT_EQ(q.next_time(), TimePoint(50));
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventHandle h = q.push(TimePoint(10), [&] { ran = true; });
  EXPECT_TRUE(q.cancel(h));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelTwiceFails) {
  EventQueue q;
  const EventHandle h = q.push(TimePoint(10), [] {});
  EXPECT_TRUE(q.cancel(h));
  EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueueTest, CancelInvalidHandleFails) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventHandle{}));
  EXPECT_FALSE(q.cancel(EventHandle{999}));
}

TEST(EventQueueTest, CancelledHeadIsSkipped) {
  EventQueue q;
  std::vector<int> order;
  const EventHandle first = q.push(TimePoint(1), [&] { order.push_back(1); });
  q.push(TimePoint(2), [&] { order.push_back(2); });
  q.cancel(first);
  EXPECT_EQ(q.next_time(), TimePoint(2));
  while (!q.empty()) q.fire_front();
  EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(EventQueueTest, CancelAfterFireIsHarmless) {
  // Regression: cancelling a handle whose event already ran must not
  // disturb the bookkeeping of the events still scheduled.
  EventQueue q;
  const EventHandle fired = q.push(TimePoint(1), [] {});
  q.push(TimePoint(2), [] {});
  q.fire_front();  // fires `fired`
  EXPECT_FALSE(q.cancel(fired));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.empty());
  q.fire_front();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, SelfCancelDuringCallbackIsHarmless) {
  EventQueue q;
  EventHandle self{};
  bool later_ran = false;
  self = q.push(TimePoint(1), [&] { q.cancel(self); });
  q.push(TimePoint(2), [&] { later_ran = true; });
  while (!q.empty()) q.fire_front();
  EXPECT_TRUE(later_ran);
}

TEST(EventQueueTest, SizeTracksLiveEvents) {
  EventQueue q;
  const EventHandle a = q.push(TimePoint(1), [] {});
  q.push(TimePoint(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.fire_front();
  EXPECT_EQ(q.size(), 0u);
}

// Stress: a deterministic pseudo-random interleaving of push / cancel /
// fire (with in-place periodic reschedule) against a brute-force
// reference model. Cancels are frequent enough to drive the heap across
// its compaction boundary many times, so this catches id aliasing,
// FIFO-at-the-same-instant breaks, and compaction losing or duplicating
// entries. One op schedules a periodic event whose callback cancels
// itself, forces a compaction while it runs, and pushes events that
// would take its slot if the queue had freed it early.
TEST(EventQueueTest, StressInterleavedOpsAcrossCompaction) {
  EventQueue q;
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next_rand = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };

  struct ModelEvent {
    std::uint64_t token;
    TimePoint when;
    Duration period{0};  // 0 = one-shot
    EventHandle handle;
    bool cancels_itself = false;  // periodic that stops on its first run
  };
  // Scheduling order; the stable minimum over `when` is the FIFO-correct
  // next event. Rescheduled periodic entries move to the back, matching
  // the queue's fresh sequence number per firing.
  std::vector<ModelEvent> live;
  std::unordered_set<std::uint64_t> seen_ids;
  std::vector<std::uint64_t> fired;
  std::uint64_t next_token = 1;
  TimePoint now{0};

  auto model_earliest = [&live] {
    std::size_t best = 0;
    for (std::size_t i = 1; i < live.size(); ++i) {
      if (live[i].when < live[best].when) best = i;
    }
    return best;
  };
  auto consume_front = [&] {
    ASSERT_FALSE(live.empty());
    const std::size_t best = model_earliest();
    const ModelEvent expect = live[best];
    live.erase(live.begin() + best);
    now = expect.when;
    ASSERT_EQ(q.next_time(), expect.when);
    const std::size_t before = fired.size();
    q.fire_front();
    if (expect.period > Duration(0) && !expect.cancels_itself) {
      ModelEvent again = expect;
      again.when = again.when + again.period;
      live.push_back(again);
    }
    ASSERT_EQ(fired.size(), before + 1);
    EXPECT_EQ(fired.back(), expect.token);
  };

  // Pushes a one-shot at the current instant and records it in the model.
  auto push_now = [&] {
    const std::uint64_t token = next_token++;
    const EventHandle h =
        q.push(now, [&fired, token] { fired.push_back(token); });
    EXPECT_TRUE(seen_ids.insert(h.id).second) << "event id reused";
    live.push_back({token, now, Duration(0), h});
  };

  for (int op = 0; op < 6000; ++op) {
    const std::uint64_t r = next_rand();
    const std::uint64_t arg = r >> 8;
    switch (r % 8) {
      case 0:
      case 1:
      case 2: {  // one-shot push; small spread forces equal instants
        const std::uint64_t token = next_token++;
        const TimePoint when =
            now + Duration(static_cast<std::int64_t>(arg % 40));
        const EventHandle h =
            q.push(when, [&fired, token] { fired.push_back(token); });
        ASSERT_TRUE(seen_ids.insert(h.id).second) << "event id reused";
        live.push_back({token, when, Duration(0), h});
        break;
      }
      case 3: {  // periodic push
        const std::uint64_t token = next_token++;
        const TimePoint when =
            now + Duration(static_cast<std::int64_t>(arg % 40));
        const Duration period = Duration(static_cast<std::int64_t>(1 + arg % 7));
        const EventHandle h = q.push_periodic(
            when, period, [&fired, token] { fired.push_back(token); });
        ASSERT_TRUE(seen_ids.insert(h.id).second) << "event id reused";
        live.push_back({token, when, period, h});
        break;
      }
      case 4:
      case 5: {  // cancel a random live entry (fuels compaction)
        if (live.empty()) break;
        const std::size_t victim = arg % live.size();
        EXPECT_TRUE(q.cancel(live[victim].handle));
        live.erase(live.begin() + victim);
        break;
      }
      case 6: {  // fire the earliest; periodic entries reschedule in place
        if (!live.empty()) consume_front();
        break;
      }
      case 7: {  // periodic that cancels itself and compacts mid-callback
        const std::uint64_t token = next_token++;
        const TimePoint when =
            now + Duration(static_cast<std::int64_t>(arg % 40));
        const Duration period =
            Duration(static_cast<std::int64_t>(1 + arg % 7));
        auto self = std::make_shared<EventHandle>();
        *self = q.push_periodic(when, period, [&, token, self] {
          fired.push_back(token);
          EXPECT_TRUE(q.cancel(*self));
          push_now();
          // More cancelled events than live ones, past the 64 floor: the
          // last cancel compacts the heap while this callback runs.
          std::vector<EventHandle> ballast;
          const std::size_t n = q.size() + 65;
          for (std::size_t i = 0; i < n; ++i) {
            ballast.push_back(q.push(now + Duration(1000), [] {}));
            EXPECT_TRUE(seen_ids.insert(ballast.back().id).second)
                << "event id reused";
          }
          for (const EventHandle h : ballast) EXPECT_TRUE(q.cancel(h));
          push_now();
        });
        ASSERT_TRUE(seen_ids.insert(self->id).second) << "event id reused";
        live.push_back({token, when, period, *self, /*cancels_itself=*/true});
        break;
      }
    }
    ASSERT_EQ(q.size(), live.size());
    ASSERT_EQ(q.empty(), live.empty());
  }

  // Drain what is left: cancel the periodics, fire the one-shots dry.
  for (std::size_t i = live.size(); i-- > 0;) {
    if (live[i].period > Duration(0)) {
      EXPECT_TRUE(q.cancel(live[i].handle));
      live.erase(live.begin() + i);
    }
  }
  while (!live.empty()) consume_front();
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace eandroid::sim
