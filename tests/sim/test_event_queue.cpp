#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

namespace camps::sim {
namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.schedule(100, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueue, InterleavedTiesStillFifoPerTime) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(5, [&] { order.push_back(50); });
  q.schedule(1, [&] { order.push_back(10); });
  q.schedule(5, [&] { order.push_back(51); });
  q.schedule(1, [&] { order.push_back(11); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{10, 11, 50, 51}));
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  q.schedule(42, [] {});
  q.schedule(7, [] {});
  EXPECT_EQ(q.next_time(), 7u);
}

TEST(EventQueue, PopReturnsTime) {
  EventQueue q;
  q.schedule(9, [] {});
  auto [when, fn] = q.pop();
  EXPECT_EQ(when, 9u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ScheduledCountMonotone) {
  EventQueue q;
  q.schedule(1, [] {});
  q.schedule(2, [] {});
  q.pop();
  EXPECT_EQ(q.scheduled_count(), 2u);
}

TEST(EventQueue, ClearDropsEvents) {
  EventQueue q;
  q.schedule(1, [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TiesStayFifoAcrossSlotRecycling) {
  // Slot reuse via the free list must never leak into ordering: after heavy
  // pop/schedule churn, equal-tick events still run in insertion order.
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 64; ++i) q.schedule(static_cast<Tick>(i), [] {});
  for (int i = 0; i < 64; ++i) q.pop();
  for (int i = 0; i < 16; ++i) {
    q.schedule(500, [&order, i] { order.push_back(i); });
  }
  std::vector<int> expected;
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 16; ++i) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(EventQueue, LateEventsRunAfterOrdinaryOnesOfTheirTick) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_late(10, 0, [&] { order.push_back(100); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(11, [&] { order.push_back(11); });
  q.schedule(10, [&] { order.push_back(2); });  // scheduled after the late one
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 100, 11}));
}

TEST(EventQueue, LateEventsRunInUnitOrderWhateverTheSchedulingOrder) {
  EventQueue q;
  std::vector<u32> order;
  for (const u32 unit : {7u, 2u, 31u, 0u, 5u}) {
    q.schedule_late(40, unit, [&order, unit] { order.push_back(unit); });
  }
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<u32>{0, 2, 5, 7, 31}));
}

TEST(EventQueue, RescheduledLateEventKeepsItsPlace) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_late(20, 1, [&] { order.push_back(1); });
  EventHandle h = q.schedule_late(20, 2, [&] { order.push_back(2); });
  q.schedule_late(20, 3, [&] { order.push_back(3); });
  ASSERT_TRUE(q.cancel(h));
  h = q.schedule_late(20, 2, [&] { order.push_back(2); });
  EXPECT_EQ(q.time_of(h), 20u);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TimeOfReportsAPendingEventsTick) {
  EventQueue q;
  const EventHandle a = q.schedule(30, [] {});
  const EventHandle b = q.schedule_late(12, 4, [] {});
  q.schedule(5, [] {});
  EXPECT_EQ(q.time_of(a), 30u);
  EXPECT_EQ(q.time_of(b), 12u);
  q.pop();  // moves both entries within the heap
  EXPECT_EQ(q.time_of(a), 30u);
  EXPECT_EQ(q.time_of(b), 12u);
}

TEST(Event, SmallCaptureStaysInline) {
  // The simulator's hot captures (a few pointers + scalars) must not touch
  // the heap. 48 bytes mirrors the vault controller's completion callbacks.
  struct Capture {
    u64* sink;
    u64 a, b, c, d, e;
    void operator()() const { *sink = a + b + c + d + e; }
  };
  u64 sink = 0;
  const u64 before = Event::heap_allocation_count();
  Event e(Capture{&sink, 1, 2, 3, 4, 5});
  EXPECT_TRUE(e.is_inline());
  EXPECT_EQ(Event::heap_allocation_count(), before);
  e();
  EXPECT_EQ(sink, 15u);
}

TEST(Event, DispatchLoopAllocationFree) {
  EventQueue q;
  u64 sink = 0;
  q.schedule(0, [&sink] { sink += 1; });
  const u64 before = Event::heap_allocation_count();
  for (int i = 0; i < 1000; ++i) {
    auto [when, fn] = q.pop();
    fn();
    q.schedule(when + 1, [&sink, when] { sink += when; });
  }
  EXPECT_EQ(Event::heap_allocation_count(), before)
      << "steady-state scheduling with small captures must not allocate";
  q.clear();
}

TEST(Event, OversizedCaptureSpillsToHeapAndStillRuns) {
  struct Big {
    unsigned char pad[Event::kInlineCapacity + 8];
    int* out;
    void operator()() const { *out = 7; }
  };
  int out = 0;
  const u64 before = Event::heap_allocation_count();
  Event e(Big{{}, &out});
  EXPECT_FALSE(e.is_inline());
  EXPECT_EQ(Event::heap_allocation_count(), before + 1);
  Event moved = std::move(e);
  moved();
  EXPECT_EQ(out, 7);
}

TEST(Event, NonTriviallyCopyableCaptureWorksInline) {
  // A capture owning a std::vector is nothrow-movable but not trivially
  // copyable; it must survive the heap's relocations intact.
  auto data = std::make_shared<std::vector<int>>(std::vector<int>{1, 2, 3});
  int sum = 0;
  EventQueue q;
  q.schedule(1, [data, &sum] {
    for (int v : *data) sum += v;
  });
  EXPECT_EQ(data.use_count(), 2);
  q.pop().second();
  EXPECT_EQ(sum, 6);
  EXPECT_EQ(data.use_count(), 1) << "popped event must destroy its capture";
}

TEST(Event, MoveTransfersOwnership) {
  int calls = 0;
  Event a([&calls] { ++calls; });
  Event b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(calls, 1);
}

TEST(EventQueue, LargeRandomLoadStaysSorted) {
  EventQueue q;
  // Insert pseudo-random times; verify nondecreasing pops.
  u64 x = 12345;
  for (int i = 0; i < 5000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    q.schedule(x >> 40, [] {});
  }
  Tick prev = 0;
  while (!q.empty()) {
    auto [when, fn] = q.pop();
    EXPECT_GE(when, prev);
    prev = when;
  }
}


// --- cancellation ---------------------------------------------------------

/// Schedules events 0..n-1 at ticks 10*(i+1) and records which ones ran.
struct Recorder {
  EventQueue q;
  std::vector<int> ran;
  std::vector<EventHandle> handles;

  explicit Recorder(int n) {
    for (int i = 0; i < n; ++i) {
      handles.push_back(
          q.schedule(static_cast<Tick>(10 * (i + 1)), [this, i] {
            ran.push_back(i);
          }));
    }
  }
  void drain() {
    while (!q.empty()) q.pop().second();
  }
};

TEST(EventQueue, CancelTopMiddleAndLastEntries) {
  Recorder r(9);
  EXPECT_TRUE(r.q.cancel(r.handles[0]));  // heap root
  EXPECT_TRUE(r.q.cancel(r.handles[4]));  // interior
  EXPECT_TRUE(r.q.cancel(r.handles[8]));  // last heap slot
  EXPECT_EQ(r.q.size(), 6u);
  EXPECT_EQ(r.q.next_time(), 20u);
  r.drain();
  EXPECT_EQ(r.ran, (std::vector<int>{1, 2, 3, 5, 6, 7}));
}

TEST(EventQueue, CancelledEventNeverRuns) {
  Recorder r(1);
  EXPECT_TRUE(r.q.pending(r.handles[0]));
  EXPECT_TRUE(r.q.cancel(r.handles[0]));
  EXPECT_FALSE(r.q.pending(r.handles[0]));
  EXPECT_TRUE(r.q.empty());
  r.drain();
  EXPECT_TRUE(r.ran.empty());
}

TEST(EventQueue, CancelledCaptureIsDestroyed) {
  auto data = std::make_shared<int>(1);
  EventQueue q;
  const EventHandle h = q.schedule(5, [data] {});
  EXPECT_EQ(data.use_count(), 2);
  q.cancel(h);
  EXPECT_EQ(data.use_count(), 1);
}

TEST(EventQueue, StaleHandleCancelIsANoOp) {
  EventQueue q;
  int fired = 0;
  const EventHandle popped = q.schedule(1, [&fired] { ++fired; });
  const EventHandle cancelled = q.schedule(2, [&fired] { ++fired; });
  q.pop().second();
  EXPECT_FALSE(q.pending(popped));
  EXPECT_FALSE(q.cancel(popped)) << "fired events are stale";
  EXPECT_TRUE(q.cancel(cancelled));
  EXPECT_FALSE(q.cancel(cancelled)) << "double cancel";

  // Both freed slots get recycled by the next events; the stale handles
  // must leave those new occupants alone.
  const EventHandle a = q.schedule(3, [&fired] { fired += 10; });
  const EventHandle b = q.schedule(4, [&fired] { fired += 100; });
  EXPECT_TRUE((a.slot == popped.slot || a.slot == cancelled.slot) &&
              (b.slot == popped.slot || b.slot == cancelled.slot));
  EXPECT_FALSE(q.cancel(popped));
  EXPECT_FALSE(q.cancel(cancelled));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_FALSE(q.cancel(EventHandle{})) << "a default handle names nothing";
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, 111) << "only the popped event and both new ones ran";
}

TEST(EventQueue, ClearMakesHandlesStale) {
  EventQueue q;
  const EventHandle h = q.schedule(7, [] {});
  q.clear();
  int fired = 0;
  const EventHandle fresh = q.schedule(8, [&fired] { ++fired; });
  EXPECT_EQ(fresh.slot, h.slot);
  EXPECT_FALSE(q.cancel(h));
  q.pop().second();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, RandomScheduleCancelPopMatchesOrderedReference) {
  // Reference model: a multimap keyed by (tick, phase, unit, insertion
  // sequence), which is exactly the order the queue promises: ordinary
  // events (phase 0, unit 0) by sequence, then late events (phase 1) by
  // unit and sequence. Interleave schedules of both kinds, cancels of
  // random live or stale handles, and pops.
  using Key = std::tuple<Tick, int, u32, u64>;
  std::multimap<Key, u64> reference;  // -> event id
  std::vector<std::pair<EventHandle, Key>> issued;
  EventQueue q;
  std::vector<u64> popped;
  u64 x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  Tick now = 0;
  u64 seq = 0;
  for (int step = 0; step < 20'000; ++step) {
    const u64 r = next() % 10;
    if (r < 5) {
      const Tick when = now + next() % 64;
      const u64 id = seq;
      auto record = [&popped, id] { popped.push_back(id); };
      if (r < 2) {
        const u32 unit = static_cast<u32>(next() % 40);
        const Key key{when, 1, unit, seq++};
        issued.emplace_back(q.schedule_late(when, unit, record), key);
        reference.emplace(key, id);
      } else {
        const Key key{when, 0, 0, seq++};
        issued.emplace_back(q.schedule(when, record), key);
        reference.emplace(key, id);
      }
    } else if (r < 7 && !issued.empty()) {
      const auto& [handle, key] = issued[next() % issued.size()];
      const bool live = reference.count(key) != 0;
      ASSERT_EQ(q.pending(handle), live);
      if (live) {
        ASSERT_EQ(q.time_of(handle), std::get<0>(key));
      }
      ASSERT_EQ(q.cancel(handle), live);
      reference.erase(key);
    } else if (!q.empty()) {
      ASSERT_FALSE(reference.empty());
      const auto expected = reference.begin();
      auto [when, fn] = q.pop();
      ASSERT_EQ(when, std::get<0>(expected->first));
      fn();
      ASSERT_EQ(popped.back(), expected->second);
      reference.erase(expected);
      now = when;
    }
    ASSERT_EQ(q.size(), reference.size());
  }
  while (!q.empty()) {
    const auto expected = reference.begin();
    q.pop().second();
    ASSERT_EQ(popped.back(), expected->second);
    reference.erase(expected);
  }
  EXPECT_TRUE(reference.empty());
}

}  // namespace
}  // namespace camps::sim
