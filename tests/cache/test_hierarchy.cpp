// Three-level hierarchy: latency composition, fills, writebacks, MSHRs.

#include <functional>
#include <gtest/gtest.h>
#include <map>
#include <vector>

#include "cache/hierarchy.hpp"

namespace camps::cache {
namespace {

/// Scripted memory: records traffic, completes reads after a fixed delay.
class FakeMemory final : public MemoryPort {
 public:
  FakeMemory(sim::Simulator& sim, Tick latency) : sim_(sim), latency_(latency) {}

  void mem_read(Addr line, CoreId core, std::function<void()> done) override {
    reads.push_back({line, core});
    sim_.schedule(latency_, std::move(done));
  }
  void mem_write(Addr line, CoreId core) override {
    writes.push_back({line, core});
  }

  std::vector<std::pair<Addr, CoreId>> reads;
  std::vector<std::pair<Addr, CoreId>> writes;

 private:
  sim::Simulator& sim_;
  Tick latency_;
};

struct Harness {
  sim::Simulator sim;
  FakeMemory memory{sim, 600 * sim::kCpuTicksPerCycle};
  HierarchyConfig cfg;
  CacheHierarchy hier;

  explicit Harness(u32 cores = 2)
      : cfg(small_config()), hier(sim, cfg, cores, &memory) {}

  static HierarchyConfig small_config() {
    HierarchyConfig cfg;
    cfg.l1 = CacheConfig{1024, 2, 64, 2};
    cfg.l2 = CacheConfig{4096, 4, 64, 6};
    cfg.l3 = CacheConfig{16384, 4, 64, 20};
    return cfg;
  }

  /// Issues a read and returns its completion latency in CPU cycles. A hit
  /// reports its completion tick instead of calling back; time advances to
  /// it either way.
  u64 timed_read(CoreId core, Addr addr) {
    const Tick start = sim.now();
    Tick end = 0;
    if (const auto hit = hier.read(core, addr, [&] { end = sim.now(); })) {
      end = *hit;
    }
    sim.run();
    sim.run_until(end);
    return (end - start) / sim::kCpuTicksPerCycle;
  }
};

TEST(Hierarchy, ColdReadGoesToMemory) {
  Harness h;
  const u64 cycles = h.timed_read(0, 0x10000);
  ASSERT_EQ(h.memory.reads.size(), 1u);
  EXPECT_EQ(h.memory.reads[0].first, 0x10000u);
  // Lookup path (2+6+20) + memory (600).
  EXPECT_EQ(cycles, 2 + 6 + 20 + 600u);
}

TEST(Hierarchy, L1HitAfterFill) {
  Harness h;
  h.timed_read(0, 0x10000);
  EXPECT_EQ(h.timed_read(0, 0x10000), 2u);
  EXPECT_EQ(h.memory.reads.size(), 1u) << "no second memory access";
}

TEST(Hierarchy, L2HitLatency) {
  Harness h;
  h.timed_read(0, 0x10000);
  // Evict from tiny L1 (8 sets x 2 ways): two same-set fills.
  const u64 l1_set_stride = h.cfg.l1.sets() * 64;
  h.timed_read(0, 0x10000 + l1_set_stride);
  h.timed_read(0, 0x10000 + 2 * l1_set_stride);
  // 0x10000 now misses L1; the L2 is big enough to keep it.
  EXPECT_EQ(h.timed_read(0, 0x10000), 2 + 6u);
}

TEST(Hierarchy, L3SharedAcrossCores) {
  Harness h;
  h.timed_read(0, 0x10000);  // core 0 brings the line in
  // Core 1 misses its private L1/L2 but hits the shared L3.
  EXPECT_EQ(h.timed_read(1, 0x10000), 2 + 6 + 20u);
  EXPECT_EQ(h.memory.reads.size(), 1u);
}

TEST(Hierarchy, PrivateL1sIndependent) {
  Harness h;
  h.timed_read(0, 0x10000);
  EXPECT_TRUE(h.hier.l1(0).probe(0x10000));
  EXPECT_FALSE(h.hier.l1(1).probe(0x10000))
      << "core 1's private L1 must not be filled by core 0's read";
}

TEST(Hierarchy, MshrMergesSameLineMisses) {
  Harness h;
  int done = 0;
  h.hier.read(0, 0x20000, [&] { ++done; });
  h.hier.read(1, 0x20000, [&] { ++done; });
  h.hier.read(0, 0x20040, [&] { ++done; });  // different line
  h.sim.run();
  EXPECT_EQ(done, 3);
  EXPECT_EQ(h.memory.reads.size(), 2u) << "same-line misses merged";
  EXPECT_EQ(h.hier.mshrs().merges(), 1u);
}

TEST(Hierarchy, WriteMissFetchesLine) {
  Harness h;
  h.hier.write(0, 0x30000);
  h.sim.run();
  ASSERT_EQ(h.memory.reads.size(), 1u) << "write-allocate";
  EXPECT_TRUE(h.hier.l1(0).probe(0x30000));
}

TEST(Hierarchy, DirtyLineWrittenBackToMemoryEventually) {
  Harness h;
  h.hier.write(0, 0x40000);
  h.sim.run();
  // Push the dirty line out of L1, L2, and L3 by filling each level's set.
  // Simplest reliable flood: read a working set larger than the whole L3.
  for (Addr a = 0; a < 64 * 1024; a += 64) {
    h.hier.read(0, 0x100000 + a, nullptr);
    h.sim.run();
  }
  bool found = false;
  for (const auto& [addr, core] : h.memory.writes) {
    found |= addr == 0x40000;
  }
  EXPECT_TRUE(found) << "dirty data must not be lost";
}

TEST(Hierarchy, CleanEvictionsProduceNoMemoryWrites) {
  Harness h;
  for (Addr a = 0; a < 64 * 1024; a += 64) {
    h.hier.read(0, 0x100000 + a, nullptr);
    h.sim.run();
  }
  EXPECT_TRUE(h.memory.writes.empty());
}

TEST(Hierarchy, AmatReflectsMix) {
  Harness h;
  h.timed_read(0, 0x50000);               // miss: 628
  EXPECT_EQ(h.timed_read(0, 0x50000), 2u); // hit: 2
  EXPECT_DOUBLE_EQ(h.hier.amat_cycles(), (628.0 + 2.0) / 2.0);
  EXPECT_EQ(h.hier.loads_completed(), 2u);
}

TEST(Hierarchy, AmatCountsHitsByCompletionTick) {
  Harness h;
  h.timed_read(0, 0x50000);  // miss: 628 cycles
  const Tick t0 = h.sim.now();
  const Tick two = 2 * sim::kCpuTicksPerCycle;

  // A hit in flight is not yet part of AMAT.
  ASSERT_EQ(h.hier.read(0, 0x50000, nullptr).value_or(0), t0 + two);
  EXPECT_EQ(h.hier.loads_completed(), 1u);
  EXPECT_DOUBLE_EQ(h.hier.amat_cycles(), 628.0);

  // At t0 + 2 cycles the first hit completes, at the reset tick: the reset
  // zeroes it. The second, issued now, completes after the reset and
  // counts.
  h.sim.run_until(t0 + two);
  ASSERT_EQ(h.hier.read(0, 0x50000, nullptr).value_or(0), t0 + 2 * two);
  h.hier.reset_stats();
  EXPECT_EQ(h.hier.loads_completed(), 0u);
  EXPECT_EQ(h.hier.load_latency_cycles(), 0u);
  h.sim.run_until(t0 + 2 * two);
  EXPECT_EQ(h.hier.loads_completed(), 1u);
  EXPECT_EQ(h.hier.load_latency_cycles(), 2u);
  EXPECT_DOUBLE_EQ(h.hier.amat_cycles(), 2.0);
}

TEST(Hierarchy, ManyHitsSettleIntoAmat) {
  // Far more hits than the lazy settle keeps pending at once.
  Harness h;
  h.timed_read(0, 0x50000);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(h.timed_read(0, 0x50000), 2u);
  EXPECT_EQ(h.hier.loads_completed(), 1001u);
  EXPECT_DOUBLE_EQ(h.hier.amat_cycles(), (628.0 + 1000 * 2.0) / 1001.0);
}

TEST(Hierarchy, MemoryTrafficCounters) {
  Harness h;
  h.timed_read(0, 0x60000);
  EXPECT_EQ(h.hier.memory_reads(), 1u);
  EXPECT_EQ(h.hier.l3_misses(), 1u);
}

TEST(Hierarchy, ResetStatsKeepsWarmContents) {
  Harness h;
  h.timed_read(0, 0x70000);
  h.hier.reset_stats();
  EXPECT_EQ(h.hier.memory_reads(), 0u);
  EXPECT_EQ(h.hier.loads_completed(), 0u);
  EXPECT_EQ(h.timed_read(0, 0x70000), 2u) << "contents stay warm";
}

TEST(Hierarchy, FillWritebacksCarryTheFetchingCore) {
  // Only core 1 runs. Its stores leave dirty lines that trickle down into
  // the L3; its read flood then fills the L3 from memory, and every dirty
  // victim those fills evict must be written back as core 1's.
  Harness h;
  for (Addr a = 0; a < 8 * 1024; a += 64) {
    h.hier.write(1, 0x40000 + a);
    h.sim.run();
  }
  for (Addr a = 0; a < 64 * 1024; a += 64) {
    h.hier.read(1, 0x100000 + a, nullptr);
    h.sim.run();
  }
  ASSERT_FALSE(h.memory.writes.empty());
  for (const auto& [addr, core] : h.memory.writes) {
    EXPECT_EQ(core, 1u) << "write-back of line " << addr;
  }
}

TEST(Hierarchy, WriteToPresentLineIsSilent) {
  Harness h;
  h.timed_read(0, 0x80000);
  h.hier.write(0, 0x80000);
  h.sim.run();
  EXPECT_EQ(h.memory.reads.size(), 1u);
}

}  // namespace
}  // namespace camps::cache
