#include "hmc/serial_link.hpp"

#include <gtest/gtest.h>

#include "sim/clock.hpp"

namespace camps::hmc {
namespace {

TEST(SerialLink, SerializationTimeMatchesBandwidth) {
  // 16 lanes x 12.5 Gbps = 25 bytes/ns. One flit (16 B) = 0.64 ns
  // = 15.36 ticks, rounded up to 16.
  LinkDirection dir;
  EXPECT_EQ(dir.serialization_ticks(1), 16u);
  // 5 flits = 80 B = 3.2 ns = 76.8 ticks -> 77.
  EXPECT_EQ(dir.serialization_ticks(5), 77u);
}

TEST(SerialLink, DeliveryIncludesFlightTime) {
  LinkParams p;
  p.flight_ticks = 96;
  LinkDirection dir(p);
  EXPECT_EQ(dir.submit(0, 1).deliver, 16u + 96u);
}

TEST(SerialLink, BackToBackPacketsSerialize) {
  LinkDirection dir;
  const Tick first = dir.submit(0, 5).deliver;
  const Tick second = dir.submit(0, 5).deliver;
  EXPECT_EQ(second - first, dir.serialization_ticks(5));
}

TEST(SerialLink, IdleGapsDoNotAccumulateCredit) {
  LinkDirection dir;
  dir.submit(0, 1);
  // Submit long after the link went idle: latency is from submission time.
  const Tick t = dir.submit(10000, 1).deliver;
  EXPECT_EQ(t, 10000 + dir.serialization_ticks(1) + LinkParams{}.flight_ticks);
}

TEST(SerialLink, CountsTraffic) {
  LinkDirection dir;
  dir.submit(0, 5);
  dir.submit(0, 1);
  EXPECT_EQ(dir.packets_carried(), 2u);
  EXPECT_EQ(dir.flits_carried(), 6u);
  EXPECT_EQ(dir.busy_ticks(),
            dir.serialization_ticks(5) + dir.serialization_ticks(1));
}

TEST(SerialLink, DirectionsAreIndependent) {
  SerialLink link;
  link.downstream().submit(0, 5);
  EXPECT_EQ(link.upstream().busy_until(), 0u);
  link.upstream().submit(0, 5);
  EXPECT_EQ(link.upstream().packets_carried(), 1u);
  EXPECT_EQ(link.downstream().packets_carried(), 1u);
}

TEST(SerialLink, ThroughputMatchesTableI) {
  // Saturate one direction for 1 us and verify ~25 GB/s (within the <3%
  // tick-rounding documented in serial_link.hpp).
  LinkDirection dir;
  const Tick horizon = 1000 * sim::kTicksPerNs;
  u64 flits = 0;
  while (dir.busy_until() < horizon) {
    dir.submit(0, 1);
    ++flits;
  }
  const double bytes_per_ns =
      static_cast<double>(flits) * kFlitBytes / 1000.0;
  EXPECT_GT(bytes_per_ns, 25.0 * 0.95);
  EXPECT_LE(bytes_per_ns, 25.0 * 1.01);
}

TEST(SerialLink, SlowerLinkTakesLonger) {
  LinkParams slow;
  slow.gbps_per_lane = 10.0;
  LinkDirection fast, slower(slow);
  EXPECT_GT(slower.serialization_ticks(5), fast.serialization_ticks(5));
}

TEST(SerialLink, PowerManagementSleepsAfterTimeout) {
  LinkParams p;
  p.power_management = true;
  p.sleep_timeout = 100;
  p.wake_ticks = 50;
  LinkDirection dir(p);
  dir.submit(0, 1);  // first packet never pays a wake penalty
  const Tick busy_after_first = dir.busy_until();
  // A packet well past the timeout pays the retrain latency.
  const Tick t = dir.submit(busy_after_first + 1000, 1).deliver;
  EXPECT_EQ(t, busy_after_first + 1000 + 50 + dir.serialization_ticks(1) +
                   p.flight_ticks);
  EXPECT_EQ(dir.wakeups(), 1u);
  EXPECT_EQ(dir.ticks_asleep(), 1000u - 100u);
}

TEST(SerialLink, PowerManagementIgnoresShortGaps) {
  LinkParams p;
  p.power_management = true;
  p.sleep_timeout = 100;
  LinkDirection dir(p);
  dir.submit(0, 1);
  const Tick busy = dir.busy_until();
  dir.submit(busy + 50, 1);  // gap below the timeout
  EXPECT_EQ(dir.wakeups(), 0u);
  EXPECT_EQ(dir.ticks_asleep(), 0u);
}

TEST(SerialLink, PowerManagementOffByDefault) {
  LinkDirection dir;
  dir.submit(0, 1);
  dir.submit(1000000, 1);
  EXPECT_EQ(dir.wakeups(), 0u);
}

TEST(SerialLink, FewerLanesTakeLonger) {
  LinkParams narrow;
  narrow.lanes = 8;
  LinkDirection full, half(narrow);
  // Half the lanes, double the time — up to the per-packet ceiling rounding
  // (each serialization rounds up independently).
  EXPECT_GE(half.serialization_ticks(1) + 1, 2 * full.serialization_ticks(1));
  EXPECT_LE(half.serialization_ticks(1), 2 * full.serialization_ticks(1));
}

}  // namespace
}  // namespace camps::hmc
