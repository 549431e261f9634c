// STREAM extension scheme: per-bank direction detection and lookahead.
#include <gtest/gtest.h>

#include "prefetch/scheme_stream.hpp"

namespace camps::prefetch {
namespace {

using dram::RowBufferOutcome;

AccessContext miss(BankId bank, RowId row) {
  AccessContext c;
  c.bank = bank;
  c.row = row;
  c.outcome = RowBufferOutcome::kEmpty;
  return c;
}

AccessContext hit(BankId bank, RowId row) {
  AccessContext c = miss(bank, row);
  c.outcome = RowBufferOutcome::kHit;
  return c;
}

constexpr u32 kBanks = 16;  // Table I

StreamParams params(u32 confidence = 2, u32 degree = 2) {
  StreamParams p;
  p.confidence_threshold = confidence;
  p.degree = degree;
  return p;
}

TEST(StreamScheme, NoPrefetchBeforeConfidence) {
  StreamScheme s(kBanks, params());
  EXPECT_FALSE(s.on_demand_access(miss(0, 10)).any());
  EXPECT_FALSE(s.on_demand_access(miss(0, 11)).any()) << "confidence 1 of 2";
  EXPECT_EQ(s.confidence(0), 1u);
  EXPECT_EQ(s.direction(0), 0) << "not yet confirmed";
}

TEST(StreamScheme, AscendingStreamConfirmsAndPrefetchesAhead) {
  StreamScheme s(kBanks, params(2, 2));
  s.on_demand_access(miss(0, 10));
  s.on_demand_access(miss(0, 11));
  const auto d = s.on_demand_access(miss(0, 12));
  ASSERT_EQ(d.extra_rows.size(), 2u);
  EXPECT_EQ(d.extra_rows[0], 13u);
  EXPECT_EQ(d.extra_rows[1], 14u);
  EXPECT_FALSE(d.fetch_row) << "stream prefetch runs ahead, not behind";
  EXPECT_EQ(s.direction(0), 1);
}

TEST(StreamScheme, DescendingStreamDetected) {
  StreamScheme s(kBanks, params(2, 1));
  s.on_demand_access(miss(0, 20));
  s.on_demand_access(miss(0, 19));
  const auto d = s.on_demand_access(miss(0, 18));
  ASSERT_EQ(d.extra_rows.size(), 1u);
  EXPECT_EQ(d.extra_rows[0], 17u);
  EXPECT_EQ(s.direction(0), -1);
}

TEST(StreamScheme, DescendingStreamStopsAtRowZero) {
  StreamScheme s(kBanks, params(1, 4));
  s.on_demand_access(miss(0, 2));
  const auto d = s.on_demand_access(miss(0, 1));
  ASSERT_EQ(d.extra_rows.size(), 1u) << "row -1 and below must not appear";
  EXPECT_EQ(d.extra_rows[0], 0u);
}

TEST(StreamScheme, JumpResetsDetector) {
  StreamScheme s(kBanks, params(2, 2));
  s.on_demand_access(miss(0, 10));
  s.on_demand_access(miss(0, 11));
  s.on_demand_access(miss(0, 12));  // confirmed
  EXPECT_FALSE(s.on_demand_access(miss(0, 500)).any());
  EXPECT_EQ(s.confidence(0), 0u);
  EXPECT_EQ(s.direction(0), 0);
}

TEST(StreamScheme, DirectionReversalRestartsConfidence) {
  StreamScheme s(kBanks, params(2, 1));
  s.on_demand_access(miss(0, 10));
  s.on_demand_access(miss(0, 11));
  s.on_demand_access(miss(0, 12));  // up-stream confirmed
  EXPECT_FALSE(s.on_demand_access(miss(0, 11)).any()) << "reversal: conf 1";
  const auto d = s.on_demand_access(miss(0, 10));
  EXPECT_EQ(d.extra_rows.size(), 1u) << "down-stream now confirmed";
}

TEST(StreamScheme, RowHitsDoNotDisturbDetector) {
  StreamScheme s(kBanks, params(2, 1));
  s.on_demand_access(miss(0, 10));
  s.on_demand_access(miss(0, 11));
  s.on_demand_access(hit(0, 11));
  s.on_demand_access(hit(0, 11));
  const auto d = s.on_demand_access(miss(0, 12));
  EXPECT_EQ(d.extra_rows.size(), 1u);
}

TEST(StreamScheme, BanksTrackIndependently) {
  StreamScheme s(kBanks, params(1, 1));
  s.on_demand_access(miss(0, 10));
  s.on_demand_access(miss(1, 50));
  EXPECT_EQ(s.on_demand_access(miss(0, 11)).extra_rows.size(), 1u);
  EXPECT_EQ(s.on_demand_access(miss(1, 49)).extra_rows[0], 48u);
}

TEST(StreamScheme, NameAndDefaultReplacement) {
  StreamScheme s(kBanks, params());
  EXPECT_EQ(s.name(), "STREAM");
  EXPECT_EQ(s.make_replacement()->name(), "lru");
}

}  // namespace
}  // namespace camps::prefetch
