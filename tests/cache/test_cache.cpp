#include "cache/cache.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace camps::cache {

// ctest names a parameterised case after this print of its parameter; the
// default byte dump would include CacheConfig's uninitialised padding.
void PrintTo(const CacheConfig& c, std::ostream* os) {
  *os << c.size_bytes / 1024 << " KiB " << c.ways << "-way";
}

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

TEST(Cache, TagPastTheKeyWidthAborts) {
  Cache c(CacheConfig{32 * 1024, 2, 64, 2});  // 256 sets: tag = addr >> 14
  const Addr largest = ((Addr{1} << 31) - 2) << 14;  // the largest tag
  c.fill(largest, true);
  EXPECT_TRUE(c.probe(largest));
  c.fill(Addr{256 * 64}, false);  // set 0, tag 1
  const auto victim = c.fill(Addr{256 * 64} * 2, false);  // tag 2
  ASSERT_TRUE(victim);
  EXPECT_EQ(victim->line_addr, largest);
  EXPECT_TRUE(victim->dirty);
  const Addr past = Addr{1} << 45;  // tag 2^31
  EXPECT_DEATH(c.probe(past), "address " + std::to_string(past));
}

// --- differential test: the packed tag store against a reference -------

/// The tag store as an array of 16-byte lines, each with its own tag,
/// stamp, valid and dirty bits: the behaviour Cache must keep, written
/// plainly.
class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& cfg)
      : cfg_(cfg), lines_(cfg.sets() * cfg.ways), clock_(cfg.sets()) {}

  bool access(Addr addr, AccessType type) {
    if (access_if_present(addr, type)) return true;
    ++misses;
    return false;
  }
  bool access_if_present(Addr addr, AccessType type) {
    Line* line = find(addr);
    if (line == nullptr) return false;
    ++hits;
    line->lru = ++clock_[set_of(addr)];
    if (type == AccessType::kWrite) line->dirty = true;
    return true;
  }
  bool probe(Addr addr) { return find(addr) != nullptr; }
  std::optional<Victim> victim_of(Addr addr, std::optional<Addr> mru) {
    if (find(addr) != nullptr) return std::nullopt;
    const u64 set = set_of(addr);
    const Line* keep = mru && set_of(*mru) == set ? find(*mru) : nullptr;
    const Line& victim = *victim_in(set, keep);
    if (!victim.valid) return std::nullopt;
    return record(set, victim);
  }
  std::optional<Victim> fill(Addr addr, bool dirty) {
    const u64 set = set_of(addr);
    if (Line* present = find(addr)) {
      present->dirty |= dirty;
      present->lru = ++clock_[set];
      return std::nullopt;
    }
    Line& victim = *victim_in(set, nullptr);
    std::optional<Victim> out;
    if (victim.valid) {
      ++evictions;
      if (victim.dirty) ++dirty_evictions;
      out = record(set, victim);
    }
    victim = Line{.tag = tag_of(addr), .lru = ++clock_[set], .valid = true,
                  .dirty = dirty};
    return out;
  }
  std::optional<bool> invalidate(Addr addr) {
    Line* line = find(addr);
    if (line == nullptr) return std::nullopt;
    const bool dirty = line->dirty;
    *line = Line{};
    return dirty;
  }

  u64 hits = 0, misses = 0, evictions = 0, dirty_evictions = 0;

 private:
  struct Line {
    u64 tag = 0;
    u32 lru = 0;
    bool valid = false;
    bool dirty = false;
  };

  u64 set_of(Addr addr) const { return addr / cfg_.line_bytes % cfg_.sets(); }
  u64 tag_of(Addr addr) const { return addr / cfg_.line_bytes / cfg_.sets(); }
  Line* find(Addr addr) {
    Line* const ways = &lines_[set_of(addr) * cfg_.ways];
    for (u32 w = 0; w < cfg_.ways; ++w) {
      if (ways[w].valid && ways[w].tag == tag_of(addr)) return &ways[w];
    }
    return nullptr;
  }
  /// The first invalid way, else the least recently used one other than
  /// `keep`, else `keep` itself.
  Line* victim_in(u64 set, const Line* keep) {
    Line* const ways = &lines_[set * cfg_.ways];
    Line* victim = nullptr;
    for (u32 w = 0; w < cfg_.ways; ++w) {
      if (!ways[w].valid) return &ways[w];
      if (&ways[w] == keep) continue;
      if (victim == nullptr || ways[w].lru < victim->lru) victim = &ways[w];
    }
    return victim != nullptr ? victim : &ways[keep - ways];
  }
  Victim record(u64 set, const Line& line) const {
    return Victim{.line_addr = (line.tag * cfg_.sets() + set) * cfg_.line_bytes,
                  .dirty = line.dirty};
  }

  CacheConfig cfg_;
  std::vector<Line> lines_;
  std::vector<u32> clock_;
};

bool same(const std::optional<Victim>& a, const std::optional<Victim>& b) {
  return a.has_value() == b.has_value() &&
         (!a || (a->line_addr == b->line_addr && a->dirty == b->dirty));
}

class PackedTagStore : public ::testing::TestWithParam<CacheConfig> {};

TEST_P(PackedTagStore, MatchesTheReferenceOverRandomOperations) {
  const CacheConfig cfg = GetParam();
  Cache cache(cfg);
  ReferenceCache ref(cfg);
  Rng rng(cfg.size_bytes * 31 + cfg.ways);
  // Addresses fall in 24 sets, each with three times as many tags as it
  // has ways, so sets fill, evict and hit again; one in eight tags sits
  // at the top of the key's range.
  const u64 sets = cfg.sets();
  std::vector<u64> hot_sets;
  for (int i = 0; i < 24; ++i) hot_sets.push_back(rng.next_below(sets));
  const u64 top_tag = (u64{1} << 31) - 2;
  auto address = [&] {
    const u64 set = hot_sets[rng.next_below(hot_sets.size())];
    const u64 tag = rng.next_below(8) == 0 ? top_tag - rng.next_below(4)
                                           : rng.next_below(3 * cfg.ways);
    return (tag * sets + set) * cfg.line_bytes +
           rng.next_below(cfg.line_bytes);
  };
  for (int op = 0; op < 200'000; ++op) {
    const Addr addr = address();
    const AccessType type =
        rng.next_below(2) == 0 ? AccessType::kRead : AccessType::kWrite;
    switch (rng.next_below(7)) {
      case 0:
        ASSERT_EQ(cache.access(addr, type), ref.access(addr, type)) << op;
        break;
      case 1:
        ASSERT_EQ(cache.access_if_present(addr, type),
                  ref.access_if_present(addr, type))
            << op;
        break;
      case 2:
        ASSERT_EQ(cache.probe(addr), ref.probe(addr)) << op;
        break;
      case 3:
      case 4: {
        const bool dirty = type == AccessType::kWrite;
        ASSERT_TRUE(same(cache.fill(addr, dirty), ref.fill(addr, dirty)))
            << op;
        break;
      }
      case 5: {
        // A kept line in the same set must be present.
        std::optional<Addr> mru;
        if (rng.next_below(2) == 0) {
          mru = address();
          if (cache.set_index(*mru) == cache.set_index(addr) &&
              !ref.probe(*mru)) {
            mru.reset();
          }
        }
        ASSERT_TRUE(same(cache.victim_of(addr, mru), ref.victim_of(addr, mru)))
            << op;
        break;
      }
      default:
        ASSERT_EQ(cache.invalidate(addr), ref.invalidate(addr)) << op;
        break;
    }
    ASSERT_EQ(cache.hits(), ref.hits) << op;
    ASSERT_EQ(cache.misses(), ref.misses) << op;
    ASSERT_EQ(cache.evictions(), ref.evictions) << op;
    ASSERT_EQ(cache.dirty_evictions(), ref.dirty_evictions) << op;
  }
  EXPECT_GT(cache.hits(), 10'000u);
  EXPECT_GT(cache.dirty_evictions(), 1'000u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, PackedTagStore,
    ::testing::Values(CacheConfig{32 * 1024, 2, 64, 2},
                      CacheConfig{256 * 1024, 4, 64, 6},
                      CacheConfig{16 * 1024 * 1024, 16, 64, 20},
                      CacheConfig{4 * 1024, 1, 64, 1}));

}  // namespace
}  // namespace camps::cache
