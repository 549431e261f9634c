// Trace-driven core: issue pacing, the outstanding-load window, and the
// warmup/measurement methodology hooks.
#include <functional>
#include <gtest/gtest.h>
#include <memory>
#include <vector>

#include "cpu/core.hpp"

namespace camps::cpu {
namespace {

/// Memory that answers every read after a fixed latency.
class FixedMemory final : public cache::MemoryPort {
 public:
  FixedMemory(sim::Simulator& sim, Tick latency) : sim_(sim), latency_(latency) {}
  void mem_read(Addr, CoreId, std::function<void()> done) override {
    ++reads;
    sim_.schedule(latency_, std::move(done));
  }
  void mem_write(Addr, CoreId) override { ++writes; }
  u64 reads = 0, writes = 0;

 private:
  sim::Simulator& sim_;
  Tick latency_;
};

cache::HierarchyConfig tiny_caches() {
  cache::HierarchyConfig cfg;
  cfg.l1 = cache::CacheConfig{1024, 2, 64, 2};
  cfg.l2 = cache::CacheConfig{4096, 4, 64, 6};
  cfg.l3 = cache::CacheConfig{16384, 4, 64, 20};
  return cfg;
}

struct Harness {
  sim::Simulator sim;
  FixedMemory memory{sim, 200 * sim::kCpuTicksPerCycle};
  cache::CacheHierarchy caches{sim, tiny_caches(), 1, &memory};
  std::unique_ptr<trace::VectorTraceSource> trace;
  std::unique_ptr<Core> core;
  std::vector<CoreId> warmed, measured;

  void build(std::vector<trace::TraceRecord> records, CoreConfig cfg) {
    trace = std::make_unique<trace::VectorTraceSource>(std::move(records));
    core = std::make_unique<Core>(
        sim, 0, cfg, trace.get(), &caches,
        [this](CoreId id) { warmed.push_back(id); },
        [this](CoreId id) { measured.push_back(id); });
  }
};

std::vector<trace::TraceRecord> sequential_loads(size_t n, u32 gap = 3) {
  std::vector<trace::TraceRecord> v;
  for (size_t i = 0; i < n; ++i) {
    v.push_back({gap, 0x100000 + 64 * i, AccessType::kRead});
  }
  return v;
}

TEST(Core, ExecutesWholeTraceAndHalts) {
  Harness h;
  CoreConfig cfg;
  cfg.warmup_instructions = 8;
  cfg.measure_instructions = 16;
  h.build(sequential_loads(20), cfg);
  h.core->start();
  h.sim.run();
  EXPECT_TRUE(h.core->halted());
  EXPECT_EQ(h.core->instructions_issued(), 20 * 4u);  // (gap 3 + 1) each
  EXPECT_EQ(h.core->loads(), 20u);
}

TEST(Core, PhaseCallbacksFireOnce) {
  Harness h;
  CoreConfig cfg;
  cfg.warmup_instructions = 8;
  cfg.measure_instructions = 16;
  h.build(sequential_loads(50), cfg);
  h.core->start();
  h.sim.run();
  EXPECT_EQ(h.warmed.size(), 1u);
  EXPECT_EQ(h.measured.size(), 1u);
  EXPECT_TRUE(h.core->warmed_up());
  EXPECT_TRUE(h.core->measured());
  EXPECT_EQ(h.core->measured_instructions(), 16u);
}

TEST(Core, IpcBoundedByIssueWidthAndMemoryPort) {
  Harness h;
  CoreConfig cfg;
  cfg.issue_width = 4;
  cfg.warmup_instructions = 40;
  cfg.measure_instructions = 400;
  h.build(sequential_loads(200, /*gap=*/7), cfg);  // 8 instrs / record
  h.core->start();
  h.sim.run();
  const double ipc = h.core->measured_ipc();
  EXPECT_GT(ipc, 0.0);
  // ceil(8/4) = 2 cycles per record minimum -> IPC <= 4.
  EXPECT_LE(ipc, 4.0 + 1e-9);
}

TEST(Core, ZeroGapStillProgresses) {
  Harness h;
  CoreConfig cfg;
  cfg.warmup_instructions = 2;
  cfg.measure_instructions = 4;
  h.build(sequential_loads(50, /*gap=*/0), cfg);
  h.core->start();
  h.sim.run();
  EXPECT_TRUE(h.core->halted());
  EXPECT_EQ(h.core->instructions_issued(), 50u);
}

TEST(Core, WindowLimitsOutstandingLoads) {
  Harness h;
  CoreConfig cfg;
  cfg.max_outstanding_loads = 2;
  cfg.warmup_instructions = 10;
  cfg.measure_instructions = 100;
  // All loads to distinct lines -> every one misses to memory (200 cyc).
  h.build(sequential_loads(30, /*gap=*/0), cfg);
  h.core->start();
  h.sim.run();
  EXPECT_GT(h.core->stall_cycles(), 0u) << "window of 2 must stall";
  // With at most 2 in flight over 200-cycle misses, 30 loads need >= 3000
  // cycles of stalling in total.
  EXPECT_GT(h.core->stall_cycles(), 2000u);
}

TEST(Core, WiderWindowStallsLess) {
  auto run_with_window = [](u32 window) {
    Harness h;
    CoreConfig cfg;
    cfg.max_outstanding_loads = window;
    cfg.warmup_instructions = 10;
    cfg.measure_instructions = 100;
    h.build(sequential_loads(30, 0), cfg);
    h.core->start();
    h.sim.run();
    return h.core->stall_cycles();
  };
  EXPECT_LT(run_with_window(8), run_with_window(1));
}

TEST(Core, StoresDoNotBlock) {
  Harness h;
  CoreConfig cfg;
  cfg.max_outstanding_loads = 1;
  cfg.warmup_instructions = 4;
  cfg.measure_instructions = 8;
  std::vector<trace::TraceRecord> recs;
  for (size_t i = 0; i < 30; ++i) {
    recs.push_back({0, 0x200000 + 64 * i, AccessType::kWrite});
  }
  h.build(recs, cfg);
  h.core->start();
  h.sim.run();
  EXPECT_EQ(h.core->stall_cycles(), 0u);
  EXPECT_EQ(h.core->stores(), 30u);
}

TEST(Core, EarlyTraceEndCompletesPhases) {
  Harness h;
  CoreConfig cfg;
  cfg.warmup_instructions = 1000000;  // unreachable
  cfg.measure_instructions = 1000000;
  h.build(sequential_loads(5), cfg);
  h.core->start();
  h.sim.run();
  EXPECT_TRUE(h.core->halted());
  EXPECT_TRUE(h.core->warmed_up());
  EXPECT_TRUE(h.core->measured());
  EXPECT_EQ(h.measured.size(), 1u) << "run must not deadlock on short traces";
}

TEST(Core, MeasuredIpcUsesOnlyTheWindow) {
  Harness h;
  CoreConfig cfg;
  cfg.warmup_instructions = 20;
  cfg.measure_instructions = 40;
  h.build(sequential_loads(100, 1), cfg);
  h.core->start();
  h.sim.run();
  // IPC positive and finite; instructions counted exactly.
  EXPECT_GT(h.core->measured_ipc(), 0.0);
  EXPECT_EQ(h.core->measured_instructions(), 40u);
}

TEST(Core, TwoCoresShareTheHierarchyIndependently) {
  sim::Simulator sim;
  FixedMemory memory{sim, 200 * sim::kCpuTicksPerCycle};
  cache::CacheHierarchy caches{sim, tiny_caches(), 2, &memory};
  CoreConfig cfg;
  cfg.warmup_instructions = 200;   // past core 0's four cold misses
  cfg.measure_instructions = 400;
  // Core 0 loops over cached lines; core 1 streams through memory.
  std::vector<trace::TraceRecord> hot, cold;
  for (size_t i = 0; i < 200; ++i) {
    hot.push_back({3, 0x100000 + 64 * (i % 4), AccessType::kRead});
    cold.push_back({3, 0x800000 + 64 * i, AccessType::kRead});
  }
  trace::VectorTraceSource hot_src(hot), cold_src(cold);
  int done = 0;
  Core fast(sim, 0, cfg, &hot_src, &caches, nullptr,
            [&](CoreId) { ++done; });
  Core slow(sim, 1, cfg, &cold_src, &caches, nullptr,
            [&](CoreId) { ++done; });
  fast.start();
  slow.start();
  sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_GT(fast.measured_ipc(), slow.measured_ipc() * 1.5)
      << "the cache-resident core must run much faster";
  EXPECT_TRUE(caches.l1(0).probe(0x100000));
  EXPECT_FALSE(caches.l1(0).probe(0x800000))
      << "core 1's stream must not pollute core 0's private L1";
}

TEST(Core, CacheHitsKeepIpcHigh) {
  Harness h;
  CoreConfig cfg;
  cfg.warmup_instructions = 100;
  cfg.measure_instructions = 500;
  // Loop over 4 lines: everything after warmup hits the L1.
  std::vector<trace::TraceRecord> recs;
  for (size_t i = 0; i < 500; ++i) {
    recs.push_back({3, 0x100000 + 64 * (i % 4), AccessType::kRead});
  }
  h.build(recs, cfg);
  h.core->start();
  h.sim.run();
  EXPECT_GT(h.core->measured_ipc(), 2.0) << "L1-resident loop should be fast";
}

TEST(Core, L1HitChainCostsOneStep) {
  // Two lines warmed into the L1 outside the core, then a trace that only
  // hits them: every record runs ahead in a chain, so the whole trace costs
  // four steps. The step start() schedules issues records 1-24; record 25
  // crosses the warmup boundary (100 instructions) and record 275 the
  // measurement boundary (1,100), so each issues in a step of its own and
  // chains on; the trace ends mid-chain, and the core halts in a step at
  // record 500's tick.
  Harness h;
  for (const Addr a : {Addr{0x100000}, Addr{0x100040}}) {
    h.caches.read(0, a, nullptr);
  }
  h.sim.run();
  constexpr u64 kRecords = 500;
  std::vector<trace::TraceRecord> recs;
  for (u64 i = 0; i < kRecords; ++i) {
    recs.push_back({3, 0x100000 + 64 * (i % 2), AccessType::kRead});
  }
  CoreConfig cfg;
  cfg.warmup_instructions = 100;
  cfg.measure_instructions = 1000;
  h.build(recs, cfg);
  const u64 before = h.sim.events_executed();
  const Tick t0 = h.sim.now();
  h.core->start();
  h.sim.run();
  EXPECT_EQ(h.memory.reads, 2u) << "every traced load hits the L1";
  EXPECT_EQ(h.core->loads(), kRecords);
  EXPECT_EQ(h.sim.events_executed() - before, 4u);
  // One cycle per record (gap 3 at width 4): the halt lands on record 500's
  // issue tick, and the window spans records 25 to 275.
  EXPECT_EQ(h.sim.now(), t0 + kRecords * sim::kCpuTicksPerCycle);
  EXPECT_DOUBLE_EQ(h.core->measured_ipc(), 1000.0 / 250.0);
}

TEST(Core, L2HitChainCostsOneStep) {
  // Three lines warmed outside the core share L1 set 0 (2-way), so a trace
  // cycling over them misses the L1 and hits the L2 on every record. The
  // victims are clean, so each L2 hit runs ahead, and the trace costs the
  // same four steps as an L1-resident one (see L1HitChainCostsOneStep).
  Harness h;
  const Addr lines[3] = {0x100000, 0x100200, 0x100400};
  for (const Addr a : lines) h.caches.read(0, a, nullptr);
  h.sim.run();
  const u64 l1_hits = h.caches.l1(0).hits();
  const u64 l2_hits = h.caches.l2(0).hits();
  constexpr u64 kRecords = 500;
  std::vector<trace::TraceRecord> recs;
  for (u64 i = 0; i < kRecords; ++i) {
    recs.push_back({3, lines[i % 3], AccessType::kRead});
  }
  CoreConfig cfg;
  cfg.warmup_instructions = 100;
  cfg.measure_instructions = 1000;
  h.build(recs, cfg);
  const u64 before = h.sim.events_executed();
  const Tick t0 = h.sim.now();
  h.core->start();
  h.sim.run();
  EXPECT_EQ(h.memory.reads, 3u) << "only the warm-up touched memory";
  EXPECT_EQ(h.caches.l1(0).hits(), l1_hits) << "every load misses the L1";
  EXPECT_EQ(h.caches.l2(0).hits() - l2_hits, kRecords);
  EXPECT_EQ(h.core->loads(), kRecords);
  EXPECT_EQ(h.sim.events_executed() - before, 4u);
  // One cycle per record: an 8-cycle hit leaves at most 7 of the 8 window
  // slots taken when the next record issues, so nothing stalls.
  EXPECT_EQ(h.sim.now(), t0 + kRecords * sim::kCpuTicksPerCycle);
  EXPECT_EQ(h.core->stall_cycles(), 0u);
  EXPECT_DOUBLE_EQ(h.core->measured_ipc(), 1000.0 / 250.0);
  // The last hits complete 8 cycles after the halt.
  h.sim.run_until(h.sim.now() + 8 * sim::kCpuTicksPerCycle);
  EXPECT_DOUBLE_EQ(h.caches.amat_cycles(),
                   (3.0 * (2 + 6 + 20 + 200) + kRecords * 8.0) /
                       (3 + kRecords));
}

TEST(Core, L2HitEvictingADirtyL2VictimEndsTheChain) {
  // L1 set 0 and L2 set 0 are built so that an L2 hit on X1 evicts the
  // dirty L1 line V, which the L2 no longer holds, and V's writeback then
  // evicts the dirty X2 from the L2 into the shared L3. That hit must not
  // run ahead: it issues in a step of its own, after the L1 hit on X4
  // chains. The L1 hit on X1 after it chains again, so the trace costs
  // three steps.
  Harness h;
  const Addr v = 0x100000;  // L1 set 0, L2 set 0
  const Addr x[5] = {0, v + 1024, v + 2048, v + 3072, v + 4096};
  // V is written first, then X1-X4, each written while V is kept MRU in
  // the L1: every X evicts the X before it from the L1 into the L2 dirty,
  // and X4's fill pushes V (clean there) out of the 4-way L2 set.
  h.caches.write(0, v);
  h.sim.run();
  for (int i = 1; i <= 4; ++i) {
    h.caches.write(0, v);  // an L1 hit: V becomes MRU
    h.caches.write(0, x[i]);
    h.sim.run();
  }
  ASSERT_TRUE(h.caches.l1(0).probe(v));
  ASSERT_FALSE(h.caches.l2(0).probe(v));
  ASSERT_TRUE(h.caches.l2(0).probe(x[1]) && h.caches.l2(0).probe(x[2]));
  ASSERT_FALSE(h.caches.l1(0).probe(x[1]));

  h.build({{3, x[4], AccessType::kRead},
           {3, x[1], AccessType::kRead},
           {3, x[1], AccessType::kRead}},
          CoreConfig{});
  const sim::EventCounts before = h.sim.events_by_source();
  h.core->start();
  h.sim.run();
  constexpr auto kCoreSource = static_cast<size_t>(sim::EventSource::kCore);
  EXPECT_EQ(h.sim.events_by_source()[kCoreSource] - before[kCoreSource], 3u)
      << "start, X1's own step, and the halt after X1's L1 hit";
  EXPECT_EQ(h.core->loads(), 3u);
  EXPECT_TRUE(h.caches.l2(0).probe(v)) << "V was written back to the L2";
  EXPECT_FALSE(h.caches.l2(0).probe(x[2])) << "and evicted X2 from it";
}

TEST(Core, PendingFillOnTheSetEndsTheChain) {
  // L1 set 0 (2-way) holds A, then B. The trace misses on C in set 0, hits
  // D in set 1 ahead of time, then loads A 400 cycles later. C's fill is in
  // flight when the chain reaches A, so A must not run ahead: it issues in
  // its own step, after the fill has evicted A (the LRU way), and misses
  // the L1 into the L2, exactly as a step per record would have it.
  Harness h;
  const Addr a = 0x100000, b = a + 8 * 64, c = a + 16 * 64, d = a + 64;
  for (const Addr line : {a, b, d}) h.caches.read(0, line, nullptr);
  h.sim.run();
  const u64 l1_hits = h.caches.l1(0).hits();
  const u64 l1_misses = h.caches.l1(0).misses();
  const u64 l2_hits = h.caches.l2(0).hits();
  const sim::EventCounts before = h.sim.events_by_source();
  h.build({{3, c, AccessType::kRead},
           {3, d, AccessType::kRead},
           {1599, a, AccessType::kRead}},
          CoreConfig{});
  h.core->start();
  h.sim.run();
  constexpr auto kCoreSource = static_cast<size_t>(sim::EventSource::kCore);
  const u64 core_steps =
      h.sim.events_by_source()[kCoreSource] - before[kCoreSource];
  EXPECT_EQ(core_steps, 3u) << "start, C's step and A's own step";
  EXPECT_EQ(h.memory.reads, 4u) << "the three warm lines, then C";
  EXPECT_EQ(h.caches.l1(0).hits() - l1_hits, 1u) << "only D hits the L1";
  EXPECT_EQ(h.caches.l1(0).misses() - l1_misses, 2u) << "C, then A";
  EXPECT_EQ(h.caches.l2(0).hits() - l2_hits, 1u) << "A, from the L2";
  EXPECT_FALSE(h.caches.l1(0).probe(b)) << "A's refill evicted B";
  EXPECT_EQ(h.core->loads(), 3u);
}

TEST(Core, StallOnAHitResumesAtItsCompletion) {
  // One-set, two-way L1 over a three-line cycle: after a warm-up outside
  // the core, every load misses the L1 and hits the L2 (2 + 6 = 8 cycles).
  sim::Simulator sim;
  FixedMemory memory{sim, 200 * sim::kCpuTicksPerCycle};
  cache::HierarchyConfig caches_cfg = tiny_caches();
  caches_cfg.l1 = cache::CacheConfig{128, 2, 64, 2};
  cache::CacheHierarchy caches{sim, caches_cfg, 1, &memory};
  const Addr lines[3] = {0x100000, 0x100040, 0x100080};
  for (const Addr a : lines) caches.read(0, a, nullptr);
  sim.run();
  const Tick t0 = sim.now();

  // Window of 1, one cycle per record (gap 3 at width 4). Record k issues
  // at cycle 1 + 9 (k - 1): the next record reaches its issue cycle one
  // cycle later, stalls 7 cycles until the hit completes, and then pays
  // its own issue cycle again from the completion.
  constexpr u64 kRecords = 40;
  std::vector<trace::TraceRecord> recs;
  for (u64 i = 0; i < kRecords; ++i) {
    recs.push_back({3, lines[i % 3], AccessType::kRead});
  }
  trace::VectorTraceSource src(recs);
  CoreConfig cfg;
  cfg.max_outstanding_loads = 1;
  cfg.warmup_instructions = 40;   // crossed by record 10
  cfg.measure_instructions = 80;  // crossed by record 30
  Core core(sim, 0, cfg, &src, &caches, nullptr, nullptr);
  core.start();
  sim.run();
  // The last hit completes at cycle 352 + 8; settle time past it.
  sim.run_until(t0 + 400 * sim::kCpuTicksPerCycle);

  EXPECT_EQ(memory.reads, 3u) << "only the warm-up touched memory";
  EXPECT_EQ(core.loads(), kRecords);
  EXPECT_EQ(core.stall_cycles(), 7 * (kRecords - 1));
  // Window from record 10 (cycle 82) to record 30 (cycle 262).
  EXPECT_DOUBLE_EQ(core.measured_ipc(), 80.0 / 180.0);
  EXPECT_EQ(caches.amat_cycles(),
            (3.0 * (2 + 6 + 20 + 200) + kRecords * 8.0) / (3 + kRecords));
}

}  // namespace
}  // namespace camps::cpu
