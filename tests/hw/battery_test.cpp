#include "hw/battery.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace eandroid::hw {
namespace {

TEST(BatteryTest, StartsFull) {
  Battery battery(1000.0);  // 1000 mWh
  EXPECT_EQ(battery.percent(), 100);
  EXPECT_DOUBLE_EQ(battery.capacity_mj(), 3'600'000.0);
  EXPECT_DOUBLE_EQ(battery.remaining_mj(), battery.capacity_mj());
  EXPECT_FALSE(battery.empty());
}

TEST(BatteryTest, DrainReducesRemaining) {
  Battery battery(1.0);  // 3600 mJ
  battery.drain(360.0, sim::TimePoint());
  EXPECT_DOUBLE_EQ(battery.remaining_mj(), 3240.0);
  EXPECT_EQ(battery.percent(), 90);
  EXPECT_DOUBLE_EQ(battery.drained_mj(), 360.0);
}

TEST(BatteryTest, ClampsAtEmpty) {
  Battery battery(1.0);
  battery.drain(10'000.0, sim::TimePoint());
  EXPECT_DOUBLE_EQ(battery.remaining_mj(), 0.0);
  EXPECT_TRUE(battery.empty());
  EXPECT_EQ(battery.percent(), 0);
}

TEST(BatteryTest, NegativeOrZeroDrainIgnored) {
  Battery battery(1.0);
  battery.drain(0.0, sim::TimePoint());
  battery.drain(-5.0, sim::TimePoint());
  EXPECT_EQ(battery.percent(), 100);
}

TEST(BatteryTest, HistoryRecordsEveryPercentDrop) {
  Battery battery(1.0);  // 3600 mJ; 1% = 36 mJ
  battery.drain(72.0, sim::TimePoint(10));
  ASSERT_EQ(battery.history().size(), 3u);  // initial 100 + 99 + 98
  EXPECT_EQ(battery.history()[0].percent, 100);
  EXPECT_EQ(battery.history()[1].percent, 99);
  EXPECT_EQ(battery.history()[2].percent, 98);
  EXPECT_EQ(battery.history()[2].when, sim::TimePoint(10));
}

TEST(BatteryTest, DrainKeepsCountingConsumptionWhenEmpty) {
  Battery battery(1.0);  // 3600 mJ
  battery.drain(10'000.0, sim::TimePoint());
  battery.drain(500.0, sim::TimePoint());
  EXPECT_DOUBLE_EQ(battery.remaining_mj(), 0.0);
  EXPECT_DOUBLE_EQ(battery.consumed_total_mj(), 10'500.0);
}

TEST(BatteryTest, DepleteToSkipsConsumptionLedger) {
  Battery battery(1.0);  // 3600 mJ
  battery.drain(360.0, sim::TimePoint());
  const std::size_t before = battery.history().size();

  // The exhaust fault: the cell collapses, nothing was consumed.
  battery.deplete_to(0.0, sim::TimePoint(5));
  EXPECT_TRUE(battery.empty());
  EXPECT_DOUBLE_EQ(battery.consumed_total_mj(), 360.0);
  // Percent drops are still recorded: 89 down to 0, at the fault.
  ASSERT_EQ(battery.history().size(), before + 90);
  EXPECT_EQ(battery.history()[before].percent, 89);
  EXPECT_EQ(battery.history().back().percent, 0);
  EXPECT_EQ(battery.history().back().when, sim::TimePoint(5));

  // Depleting "up" is a no-op; deplete never adds charge.
  battery.deplete_to(100.0, sim::TimePoint(6));
  EXPECT_DOUBLE_EQ(battery.remaining_mj(), 0.0);
}

TEST(BatteryTest, PercentAndHistoryMatchAFreshFloorAfterEveryUpdate) {
  // percent() is recomputed only when the charge leaves a band inside
  // the current percent's interval; it must still equal the floor taken
  // after every update, and the history must step through every percent
  // between two updates. Seeded flows from 1e-9 mJ to a percent and
  // more, alternating 1,000-update drain and charge phases (each crosses
  // the whole range), plus collapses onto a percent boundary, one ulp
  // below it and just past the floor's 1e-9 allowance.
  Battery battery(1.0);  // 3600 mJ; 1% = 36 mJ
  auto floor_percent = [&battery] {
    return static_cast<int>(std::floor(
        100.0 * battery.remaining_mj() / battery.capacity_mj() + 1e-9));
  };
  std::uint64_t rng = 0x2545f4914f6cdd1dull;
  auto uniform = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return static_cast<double>(rng >> 11) * 0x1.0p-53;
  };
  const double sizes[] = {1e-9, 1e-6, 0.36, 3.6, 36.0};
  int previous = battery.percent();
  for (int i = 0; i < 20000; ++i) {
    const std::size_t before = battery.history().size();
    if (i % 97 == 0) {
      const double boundary = 36.0 * std::floor(battery.remaining_mj() / 36.0);
      const double targets[] = {boundary, std::nextafter(boundary, 0.0),
                                boundary - 36e-9};
      battery.deplete_to(targets[(i / 97) % 3], sim::TimePoint(i));
    } else {
      const bool charging = (i / 1000) % 2 == 1;
      battery.meter(sizes[i % 5] * uniform(),
                    charging ? 2.0 * sizes[(i / 7) % 5] * uniform() : 0.0,
                    sim::TimePoint(i));
    }
    const int now = floor_percent();
    ASSERT_EQ(battery.percent(), now) << "update " << i;
    const auto steps = static_cast<std::size_t>(std::abs(now - previous));
    ASSERT_EQ(battery.history().size(), before + steps) << "update " << i;
    for (std::size_t k = 0; k < steps; ++k) {
      const int step = now > previous ? 1 : -1;
      ASSERT_EQ(battery.history()[before + k].percent,
                previous + step * static_cast<int>(k + 1));
      ASSERT_EQ(battery.history()[before + k].when, sim::TimePoint(i));
    }
    previous = now;
  }
  // The phases really did sweep the range.
  EXPECT_GT(battery.history().size(), 1000u);
}

TEST(BatteryTest, ManySmallDrainsMatchOneBigDrain) {
  Battery a(1.0), b(1.0);
  for (int i = 0; i < 100; ++i) a.drain(3.6, sim::TimePoint(i));
  b.drain(360.0, sim::TimePoint());
  EXPECT_NEAR(a.remaining_mj(), b.remaining_mj(), 1e-6);
  EXPECT_EQ(a.percent(), b.percent());
}

}  // namespace
}  // namespace eandroid::hw
