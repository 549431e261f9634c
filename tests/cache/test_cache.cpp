#include "cache/cache.hpp"

#include <gtest/gtest.h>

namespace camps::cache {
namespace {

CacheConfig tiny() {
  // 4 sets x 2 ways x 64 B lines = 512 B.
  return CacheConfig{.size_bytes = 512, .ways = 2, .line_bytes = 64,
                     .hit_latency = 2};
}

TEST(CacheConfig, TableIConfigsValid) {
  EXPECT_TRUE((CacheConfig{32 * 1024, 2, 64, 2}).valid());
  EXPECT_TRUE((CacheConfig{256 * 1024, 4, 64, 6}).valid());
  EXPECT_TRUE((CacheConfig{16 * 1024 * 1024, 16, 64, 20}).valid());
}

TEST(CacheConfig, SetsComputed) {
  EXPECT_EQ((CacheConfig{16 * 1024 * 1024, 16, 64, 20}).sets(), 16384u);
}

TEST(CacheConfig, InvalidConfigs) {
  EXPECT_FALSE((CacheConfig{100, 2, 64, 1}).valid());   // not divisible
  EXPECT_FALSE((CacheConfig{512, 2, 60, 1}).valid());   // line not pow2
}

TEST(Cache, ColdMissThenHit) {
  Cache c(tiny());
  EXPECT_FALSE(c.access(0x1000, AccessType::kRead));
  c.fill(0x1000, false);
  EXPECT_TRUE(c.access(0x1000, AccessType::kRead));
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, VictimOfPredictsFillWithoutSideEffects) {
  Cache c(tiny());  // 4 sets x 2 ways
  const Addr a = 0x1000, b = a + 4 * 64, d = a + 8 * 64;  // all in one set
  EXPECT_FALSE(c.victim_of(a)) << "a free way takes the fill";
  c.fill(a, true);
  c.fill(b, false);
  EXPECT_FALSE(c.victim_of(b)) << "a present line displaces nothing";
  const auto predicted = c.victim_of(d);
  ASSERT_TRUE(predicted);
  EXPECT_EQ(predicted->line_addr, a);
  EXPECT_TRUE(predicted->dirty);
  // With a kept most recently used, b is the line to go.
  const auto with_mru = c.victim_of(d, a);
  ASSERT_TRUE(with_mru);
  EXPECT_EQ(with_mru->line_addr, b);
  EXPECT_EQ(c.evictions(), 0u) << "predicting evicts nothing";
  const auto actual = c.fill(d, false);
  ASSERT_TRUE(actual);
  EXPECT_EQ(actual->line_addr, predicted->line_addr);
  // One way: the most recently used line itself goes.
  Cache direct(CacheConfig{256, 1, 64, 2});
  direct.fill(a, true);
  const auto only = direct.victim_of(a + 4 * 64, a);
  ASSERT_TRUE(only);
  EXPECT_EQ(only->line_addr, a);
}

TEST(Cache, ProbeHasNoSideEffects) {
  Cache c(tiny());
  c.fill(0x1000, false);
  EXPECT_TRUE(c.probe(0x1000));
  EXPECT_FALSE(c.probe(0x2000));
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_EQ(c.misses(), 0u);
}

TEST(Cache, LineGranularity) {
  Cache c(tiny());
  c.fill(0x1000, false);
  EXPECT_TRUE(c.access(0x103F, AccessType::kRead)) << "same 64 B line";
  EXPECT_FALSE(c.access(0x1040, AccessType::kRead)) << "next line";
}

TEST(Cache, LruEvictionWithinSet) {
  Cache c(tiny());  // 4 sets: addresses 256 B apart share a set
  const Addr a = 0x0000, b = 0x0100 * 4, d = 0x0200 * 4;  // set 0 tags
  c.fill(a, false);
  c.fill(b, false);
  c.access(a, AccessType::kRead);       // a is MRU
  const auto victim = c.fill(d, false); // evicts b
  ASSERT_TRUE(victim);
  EXPECT_EQ(victim->line_addr, b);
  EXPECT_TRUE(c.probe(a));
  EXPECT_FALSE(c.probe(b));
}

TEST(Cache, VictimAddressReconstructedCorrectly) {
  Cache c(tiny());
  const Addr addr = 0xAB40;  // arbitrary
  c.fill(addr, false);
  // Fill same set with two more lines to force addr out.
  const u64 set_stride = 4 * 64;
  c.fill(addr + set_stride, false);
  const auto victim = c.fill(addr + 2 * set_stride, false);
  ASSERT_TRUE(victim);
  EXPECT_EQ(victim->line_addr, addr - addr % 64);
}

TEST(Cache, WriteSetsDirtyOnHit) {
  Cache c(tiny());
  c.fill(0x1000, false);
  c.access(0x1000, AccessType::kWrite);
  const auto dirty = c.invalidate(0x1000);
  ASSERT_TRUE(dirty.has_value());
  EXPECT_TRUE(*dirty);
}

TEST(Cache, DirtyVictimReported) {
  Cache c(tiny());
  c.fill(0x0000, true);
  c.fill(0x0400, false);
  const auto victim = c.fill(0x0800, false);
  ASSERT_TRUE(victim);
  EXPECT_TRUE(victim->dirty);
  EXPECT_EQ(c.dirty_evictions(), 1u);
}

TEST(Cache, FillPresentLineOrsDirty) {
  Cache c(tiny());
  c.fill(0x1000, false);
  const auto victim = c.fill(0x1000, true);
  EXPECT_FALSE(victim.has_value());
  EXPECT_TRUE(*c.invalidate(0x1000));
}

TEST(Cache, InvalidateAbsentLine) {
  Cache c(tiny());
  EXPECT_FALSE(c.invalidate(0x1000).has_value());
}

TEST(Cache, FillIntoInvalidWayNoVictim) {
  Cache c(tiny());
  EXPECT_FALSE(c.fill(0x0000, false).has_value());
  EXPECT_FALSE(c.fill(0x0400, false).has_value());  // second way, same set
  EXPECT_TRUE(c.fill(0x0800, false).has_value());   // now full
}

TEST(Cache, ResetStatsKeepsContents) {
  Cache c(tiny());
  c.fill(0x1000, false);
  c.access(0x1000, AccessType::kRead);
  c.reset_stats();
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_TRUE(c.probe(0x1000));
}

TEST(Cache, WorkingSetLargerThanCacheThrashes) {
  Cache c(tiny());
  // Touch 1024 distinct lines twice: second pass still misses (LRU).
  for (int pass = 0; pass < 2; ++pass) {
    for (Addr a = 0; a < 1024 * 64; a += 64) {
      if (!c.access(a, AccessType::kRead)) c.fill(a, false);
    }
  }
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_EQ(c.misses(), 2 * 1024u);
}

TEST(Cache, WorkingSetSmallerThanCacheHitsOnSecondPass) {
  Cache c(tiny());
  for (int pass = 0; pass < 2; ++pass) {
    for (Addr a = 0; a < 8 * 64; a += 64) {
      if (!c.access(a, AccessType::kRead)) c.fill(a, false);
    }
  }
  EXPECT_EQ(c.hits(), 8u);
  EXPECT_EQ(c.misses(), 8u);
}

// Associativity sweep: a set never holds more lines than its way count.
class WaySweep : public ::testing::TestWithParam<u32> {};

TEST_P(WaySweep, SetCapacityRespected) {
  const u32 ways = GetParam();
  Cache c(CacheConfig{.size_bytes = u64{ways} * 4 * 64, .ways = ways,
                      .line_bytes = 64, .hit_latency = 1});
  // Fill one set with ways+3 distinct tags.
  const u64 set_stride = c.config().sets() * 64;
  for (u32 i = 0; i < ways + 3; ++i) {
    c.fill(static_cast<Addr>(i) * set_stride, false);
  }
  u32 resident = 0;
  for (u32 i = 0; i < ways + 3; ++i) {
    if (c.probe(static_cast<Addr>(i) * set_stride)) ++resident;
  }
  EXPECT_EQ(resident, ways);
  EXPECT_EQ(c.evictions(), 3u);
}

INSTANTIATE_TEST_SUITE_P(Ways, WaySweep, ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace camps::cache
