#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace camps::sim {
namespace {

TEST(Simulator, NowStartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0u);
}

TEST(Simulator, ScheduleRelativeAdvancesNow) {
  Simulator sim;
  Tick seen = 0;
  sim.schedule(25, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 25u);
  EXPECT_EQ(sim.now(), 25u);
}

TEST(Simulator, NestedSchedulingFromHandlers) {
  Simulator sim;
  std::vector<Tick> times;
  sim.schedule(10, [&] {
    times.push_back(sim.now());
    sim.schedule(5, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<Tick>{10, 15}));
}

TEST(Simulator, RunReturnsEventCount) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule(i, [] {});
  EXPECT_EQ(sim.run(), 5u);
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&] { ++fired; });
  sim.schedule(20, [&] { ++fired; });
  sim.schedule(30, [&] { ++fired; });
  sim.run_until(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20u);
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulator, RunUntilAdvancesNowOnEmptyQueue) {
  Simulator sim;
  sim.run_until(99);
  EXPECT_EQ(sim.now(), 99u);
}

TEST(Simulator, StepExecutesOne) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1, [&] { ++fired; });
  sim.schedule(2, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, RunWhilePendingStopsOnPredicate) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) sim.schedule(i, [&] { ++count; });
  const bool fired = sim.run_while_pending([&] { return count == 4; });
  EXPECT_TRUE(fired);
  EXPECT_EQ(count, 4);
  EXPECT_EQ(sim.now(), 4u);
}

TEST(Simulator, RunWhilePendingDrainsIfPredicateNeverFires) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 3; ++i) sim.schedule(i, [&] { ++count; });
  const bool fired = sim.run_while_pending([&] { return false; });
  EXPECT_FALSE(fired);
  EXPECT_EQ(count, 3);
}

TEST(Simulator, ScheduleAtAbsolute) {
  Simulator sim;
  Tick seen = 0;
  sim.schedule_at(100, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 100u);
}

TEST(Simulator, ZeroDelayRunsAtCurrentTime) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(10, [&] {
    order.push_back(1);
    sim.schedule(0, [&] { order.push_back(2); });
  });
  sim.schedule(10, [&] { order.push_back(3); });
  sim.run();
  // The zero-delay event was scheduled after event 3 at the same tick.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(sim.now(), 10u);
}


TEST(Simulator, CancelRemovesAPendingEvent) {
  Simulator sim;
  int fired = 0;
  const EventHandle timer = sim.schedule(50, [&] { fired += 1; });
  sim.schedule(10, [&] { EXPECT_TRUE(sim.cancel(timer)); });
  EXPECT_EQ(sim.run(), 1u) << "a cancelled event is never executed";
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(sim.cancel(timer));
}

TEST(Simulator, LateEventsRunAfterTheTicksOrdinaryEvents) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_late_at(10, 3, [&] { order.push_back(3); });
  sim.schedule_late_at(10, 1, [&] { order.push_back(1); });
  sim.schedule_at(5, [&] {
    sim.schedule_at(10, [&] { order.push_back(0); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(sim.now(), 10u);
}

TEST(Simulator, CoreStepsAndVaultWakesFollowUnitOrder) {
  // Whatever order they were scheduled in, one tick runs its ordinary
  // events, then vault wakes by vault id, then core steps by core id.
  Simulator sim;
  std::vector<std::string> order;
  auto late = [&](u32 unit, std::string name) {
    sim.schedule_late_at(10, unit, [&order, name] { order.push_back(name); });
  };
  late(late_unit::core(1), "core1");
  late(late_unit::vault(31), "vault31");
  late(late_unit::core(0), "core0");
  late(late_unit::vault(0), "vault0");
  sim.schedule_at(10, [&] { order.push_back("ordinary"); });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"ordinary", "vault0", "vault31",
                                             "core0", "core1"}));
  EXPECT_LT(late_unit::vault(late_unit::kVaults - 1), late_unit::core(0))
      << "the vault and core unit ranges must not overlap";
}

TEST(Simulator, CountsExecutedEventsPerSource) {
  Simulator sim;
  sim.schedule(1, [] {}, EventSource::kCore);
  sim.schedule(2, [] {}, EventSource::kCore);
  sim.schedule_late_at(3, late_unit::vault(0), [] {}, EventSource::kVault);
  sim.schedule(4, [] {});
  const EventHandle cancelled = sim.schedule(5, [] {}, EventSource::kHost);
  sim.cancel(cancelled);
  sim.run();
  const EventCounts& by = sim.events_by_source();
  EXPECT_EQ(by[static_cast<size_t>(EventSource::kCore)], 2u);
  EXPECT_EQ(by[static_cast<size_t>(EventSource::kVault)], 1u);
  EXPECT_EQ(by[static_cast<size_t>(EventSource::kOther)], 1u)
      << "untagged events count as other";
  EXPECT_EQ(by[static_cast<size_t>(EventSource::kHost)], 0u)
      << "a cancelled event never runs, so it is never counted";
  u64 sum = 0;
  for (const u64 n : by) sum += n;
  EXPECT_EQ(sum, sim.events_executed());
}

}  // namespace
}  // namespace camps::sim
