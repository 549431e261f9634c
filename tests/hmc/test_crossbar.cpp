#include "hmc/crossbar.hpp"

#include <gtest/gtest.h>

namespace camps::hmc {
namespace {

TEST(Crossbar, FixedLatency) {
  Crossbar xbar(4);
  EXPECT_EQ(xbar.route(100, 0).deliver, 100 + CrossbarParams{}.latency_ticks);
}

TEST(Crossbar, PerPortSerialization) {
  CrossbarParams p;
  p.latency_ticks = 60;
  p.port_interval_ticks = 30;
  Crossbar xbar(4, p);
  const Tick a = xbar.route(0, 2).deliver;
  const Tick b = xbar.route(0, 2).deliver;
  EXPECT_EQ(b - a, 30u);
}

TEST(Crossbar, DifferentPortsDoNotInterfere) {
  Crossbar xbar(4);
  const Tick a = xbar.route(0, 0).deliver;
  const Tick b = xbar.route(0, 1).deliver;
  EXPECT_EQ(a, b);
}

TEST(Crossbar, PortFreesAfterInterval) {
  CrossbarParams p;
  p.port_interval_ticks = 30;
  Crossbar xbar(2, p);
  xbar.route(0, 0);
  // A packet arriving after the interval passes without queueing.
  EXPECT_EQ(xbar.route(30, 0).deliver, 30 + p.latency_ticks);
}

TEST(Crossbar, CountsPackets) {
  Crossbar xbar(2);
  xbar.route(0, 0);
  xbar.route(0, 1);
  xbar.route(5, 0);
  EXPECT_EQ(xbar.packets_routed(), 3u);
  EXPECT_EQ(xbar.ports(), 2u);
}

TEST(Crossbar, BurstToOnePortQueuesLinearly) {
  CrossbarParams p;
  p.port_interval_ticks = 30;
  p.latency_ticks = 60;
  Crossbar xbar(1, p);
  for (u32 i = 0; i < 10; ++i) {
    EXPECT_EQ(xbar.route(0, 0).deliver, i * 30 + 60);
  }
}

}  // namespace
}  // namespace camps::hmc
