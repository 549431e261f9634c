#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace camps {
namespace {

TEST(Counter, StartsAtZero) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, IncrementsByOneAndBy) {
  Counter c;
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, Reset) {
  Counter c;
  c.inc(5);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

TEST(Histogram, TracksExactAggregates) {
  Histogram h;
  h.sample(5);
  h.sample(25);
  h.sample(15);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 45u);
  EXPECT_EQ(h.min(), 5u);
  EXPECT_EQ(h.max(), 25u);
  EXPECT_DOUBLE_EQ(h.mean(), 15.0);
}

TEST(Histogram, SmallValuesAreExact) {
  // Every value below 2 * kSubBuckets has a bucket of its own, so each
  // percentile of a dense small range is the sample at that rank.
  const u64 n = 2 * Histogram::kSubBuckets;
  Histogram h;
  for (u64 v = 0; v < n; ++v) h.sample(v);
  for (u64 v = 0; v < n; ++v) {
    // Aim mid-rank so floating-point rounding cannot slip to rank v - 1.
    const double p =
        100.0 * (static_cast<double>(v) + 0.5) / static_cast<double>(n - 1);
    EXPECT_DOUBLE_EQ(h.percentile(p), static_cast<double>(v)) << "p" << p;
  }
}

TEST(Histogram, RelativeErrorBoundedUpTo2Pow40) {
  // Log-uniform samples over [1, 2^40]: each reported percentile must lie
  // within kMaxRelativeError of the exact sample at the same rank.
  Rng rng(42);
  Histogram h;
  std::vector<u64> values;
  for (int i = 0; i < 20000; ++i) {
    const u64 v = std::max<u64>(1, rng.next() >> (24 + rng.next_below(40)));
    values.push_back(v);
    h.sample(v);
  }
  h.sample(u64{1} << 40);
  values.push_back(u64{1} << 40);
  std::sort(values.begin(), values.end());
  for (double p : {0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9,
                   100.0}) {
    const size_t rank = static_cast<size_t>(
        p / 100.0 * static_cast<double>(values.size() - 1));
    const double exact = static_cast<double>(values[rank]);
    EXPECT_LE(std::abs(h.percentile(p) - exact),
              exact * Histogram::kMaxRelativeError)
        << "p" << p << " exact " << exact;
  }
  EXPECT_EQ(h.max(), u64{1} << 40);
}

TEST(Histogram, PercentilesStayWithinMinMax) {
  // One wide bucket holding both samples: its midpoint lies outside
  // [min, max], so the clamp must pull it back.
  Histogram h;
  h.sample(1000);
  h.sample(1001);
  for (double p : {0.0, 50.0, 100.0}) {
    EXPECT_GE(h.percentile(p), 1000.0);
    EXPECT_LE(h.percentile(p), 1001.0);
  }
}

TEST(Histogram, PercentileOrdering) {
  Histogram h;
  for (u64 v = 0; v < 100; ++v) h.sample(v);
  EXPECT_LE(h.percentile(10), h.percentile(50));
  EXPECT_LE(h.percentile(50), h.percentile(99));
  EXPECT_NEAR(h.percentile(50), 50.0, 2.0);
}

TEST(Histogram, PercentileEdgeCases) {
  // Empty histogram: every percentile is 0.
  Histogram empty;
  EXPECT_DOUBLE_EQ(empty.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(100), 0.0);

  // Single sample, small or large: every percentile is that sample.
  for (u64 v : {u64{17}, u64{30825}, u64{1} << 40}) {
    Histogram one;
    one.sample(v);
    for (double p : {0.0, 50.0, 95.0, 99.0, 100.0}) {
      EXPECT_DOUBLE_EQ(one.percentile(p), static_cast<double>(v));
    }
    // Out-of-range p clamps instead of reading past the distribution.
    EXPECT_DOUBLE_EQ(one.percentile(-5), one.percentile(0));
    EXPECT_DOUBLE_EQ(one.percentile(250), one.percentile(100));
  }
}

TEST(Histogram, ResetClearsEverything) {
  Histogram h;
  h.sample(3);
  h.sample(5000);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  h.sample(7);
  EXPECT_DOUBLE_EQ(h.percentile(100), 7.0) << "no sample survives a reset";
}

TEST(StatRegistry, CounterIdentityIsStable) {
  StatRegistry reg;
  Counter& a = reg.counter("x.y");
  a.inc(3);
  EXPECT_EQ(&reg.counter("x.y"), &a);
  EXPECT_EQ(reg.counter_value("x.y"), 3u);
}

TEST(StatRegistry, MissingCounterReadsZero) {
  StatRegistry reg;
  EXPECT_EQ(reg.counter_value("nope"), 0u);
}

TEST(StatRegistry, HistogramIdentityIsStable) {
  StatRegistry reg;
  Histogram& h = reg.histogram("lat");
  h.sample(50);
  Histogram& again = reg.histogram("lat");
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(again.count(), 1u);
}

TEST(StatRegistry, DumpSortedAndComplete) {
  StatRegistry reg;
  reg.counter("zeta").inc(1);
  reg.counter("alpha").inc(2);
  const std::string dump = reg.dump();
  const auto a = dump.find("alpha");
  const auto z = dump.find("zeta");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a, z);
}

TEST(StatRegistry, ResetZeroesCounters) {
  StatRegistry reg;
  reg.counter("c").inc(9);
  reg.histogram("h").sample(1);
  reg.reset();
  EXPECT_EQ(reg.counter_value("c"), 0u);
  EXPECT_EQ(reg.histogram("h").count(), 0u);
}

}  // namespace
}  // namespace camps
