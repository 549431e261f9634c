// Scheme behaviours other than CAMPS (which gets its own file).
#include <gtest/gtest.h>

#include "prefetch/factory.hpp"
#include "prefetch/scheme_base.hpp"
#include "prefetch/scheme_base_hit.hpp"
#include "prefetch/scheme_mmd.hpp"
#include "prefetch/scheme_none.hpp"

namespace camps::prefetch {
namespace {

constexpr u32 kBanks = 16;  // Table I

AccessContext ctx(dram::RowBufferOutcome outcome, u32 queued_same_row = 0,
                  BankId bank = 0, RowId row = 10) {
  AccessContext c;
  c.bank = bank;
  c.row = row;
  c.line = 0;
  c.type = AccessType::kRead;
  c.outcome = outcome;
  c.queued_same_row = queued_same_row;
  c.dram_cycle = 100;
  return c;
}

using dram::RowBufferOutcome;

TEST(NoPrefetchScheme, NeverFetches) {
  NoPrefetchScheme none;
  for (auto outcome : {RowBufferOutcome::kHit, RowBufferOutcome::kEmpty,
                       RowBufferOutcome::kConflict}) {
    const auto d = none.on_demand_access(ctx(outcome));
    EXPECT_FALSE(d.any());
  }
}

TEST(BaseScheme, FetchesAndPrechargesOnEveryAccess) {
  BaseScheme base;
  for (auto outcome : {RowBufferOutcome::kHit, RowBufferOutcome::kEmpty,
                       RowBufferOutcome::kConflict}) {
    const auto d = base.on_demand_access(ctx(outcome));
    EXPECT_TRUE(d.fetch_row);
    EXPECT_TRUE(d.precharge_after);
    EXPECT_TRUE(d.serve_via_buffer) << "BASE serves through the copy";
    EXPECT_TRUE(d.extra_rows.empty());
  }
}

TEST(BaseHitScheme, RequiresTwoQueuedHits) {
  BaseHitScheme scheme(2);
  EXPECT_FALSE(scheme.on_demand_access(ctx(RowBufferOutcome::kEmpty, 0)).any());
  const auto d = scheme.on_demand_access(ctx(RowBufferOutcome::kEmpty, 1));
  EXPECT_TRUE(d.fetch_row);
  EXPECT_FALSE(d.precharge_after) << "BASE-HIT keeps the open-page policy";
  EXPECT_TRUE(d.serve_via_buffer);
}

TEST(BaseHitScheme, ThresholdIsConfigurable) {
  BaseHitScheme scheme(4);
  EXPECT_FALSE(scheme.on_demand_access(ctx(RowBufferOutcome::kEmpty, 2)).any());
  EXPECT_TRUE(
      scheme.on_demand_access(ctx(RowBufferOutcome::kEmpty, 3)).fetch_row);
}

TEST(MmdScheme, FetchesActivatedRowOnMiss) {
  MmdScheme mmd;
  const auto d = mmd.on_demand_access(ctx(RowBufferOutcome::kEmpty));
  EXPECT_TRUE(d.fetch_row);
  EXPECT_FALSE(d.precharge_after);
  EXPECT_FALSE(d.serve_via_buffer);
}

TEST(MmdScheme, NoFetchOnRowHit) {
  MmdScheme mmd;
  EXPECT_FALSE(mmd.on_demand_access(ctx(RowBufferOutcome::kHit)).any());
}

TEST(MmdScheme, DegreeControlsExtraRows) {
  MmdParams p;
  p.max_degree = 4;
  p.initial_degree = 3;
  MmdScheme mmd(p);
  const auto d = mmd.on_demand_access(ctx(RowBufferOutcome::kConflict));
  ASSERT_EQ(d.extra_rows.size(), 2u);
  EXPECT_EQ(d.extra_rows[0], 11u);  // row + 1
  EXPECT_EQ(d.extra_rows[1], 12u);  // row + 2
}

TEST(MmdScheme, UsefulFeedbackRaisesDegree) {
  MmdParams p;
  p.max_degree = 4;
  p.epoch_evictions = 4;
  MmdScheme mmd(p);
  EXPECT_EQ(mmd.degree(), 1u);
  for (int i = 0; i < 4; ++i) mmd.on_prefetch_evicted({}, true);
  EXPECT_EQ(mmd.degree(), 2u);
  EXPECT_EQ(mmd.epochs_completed(), 1u);
}

TEST(MmdScheme, UselessFeedbackLowersDegreeToZero) {
  MmdParams p;
  p.max_degree = 4;
  p.epoch_evictions = 4;
  p.initial_degree = 2;
  MmdScheme mmd(p);
  for (int i = 0; i < 4; ++i) mmd.on_prefetch_evicted({}, false);
  EXPECT_EQ(mmd.degree(), 1u);
  for (int i = 0; i < 4; ++i) mmd.on_prefetch_evicted({}, false);
  EXPECT_EQ(mmd.degree(), 0u);
  // At degree 0 the prefetcher is off.
  EXPECT_FALSE(mmd.on_demand_access(ctx(RowBufferOutcome::kEmpty)).any());
}

TEST(MmdScheme, DegreeCappedAtMax) {
  MmdParams p;
  p.epoch_evictions = 2;
  p.max_degree = 2;
  MmdScheme mmd(p);
  for (int i = 0; i < 20; ++i) mmd.on_prefetch_evicted({}, true);
  EXPECT_EQ(mmd.degree(), 2u);
}

TEST(MmdScheme, ProbesAgainAfterIdleAtZero) {
  MmdParams p;
  p.epoch_evictions = 2;
  p.initial_degree = 1;
  p.probe_interval = 8;
  MmdScheme mmd(p);
  for (int i = 0; i < 2; ++i) mmd.on_prefetch_evicted({}, false);
  EXPECT_EQ(mmd.degree(), 0u);
  // 7 misses: still off; the 8th re-enables at degree 1.
  for (int i = 0; i < 7; ++i) {
    EXPECT_FALSE(mmd.on_demand_access(ctx(RowBufferOutcome::kEmpty)).any());
  }
  EXPECT_TRUE(mmd.on_demand_access(ctx(RowBufferOutcome::kEmpty)).fetch_row);
  EXPECT_EQ(mmd.degree(), 1u);
}

TEST(MmdScheme, MiddleBandHoldsDegree) {
  MmdParams p;
  p.max_degree = 4;
  p.epoch_evictions = 10;
  p.initial_degree = 2;
  MmdScheme mmd(p);
  // 50% usefulness sits between lower (0.45) and raise (0.65): no change.
  for (int i = 0; i < 10; ++i) mmd.on_prefetch_evicted({}, i % 2 == 0);
  EXPECT_EQ(mmd.degree(), 2u);
}

TEST(Factory, PaperSchemesInFigureOrder) {
  const auto schemes = paper_schemes();
  ASSERT_EQ(schemes.size(), 5u);
  EXPECT_EQ(schemes[0], SchemeKind::kBase);
  EXPECT_EQ(schemes[1], SchemeKind::kBaseHit);
  EXPECT_EQ(schemes[2], SchemeKind::kMmd);
  EXPECT_EQ(schemes[3], SchemeKind::kCamps);
  EXPECT_EQ(schemes[4], SchemeKind::kCampsMod);
}

TEST(Factory, NamesRoundTrip) {
  for (SchemeKind kind :
       {SchemeKind::kNone, SchemeKind::kBase, SchemeKind::kBaseHit,
        SchemeKind::kMmd, SchemeKind::kCamps, SchemeKind::kCampsMod,
        SchemeKind::kStream}) {
    EXPECT_EQ(scheme_from_string(to_string(kind)), kind);
    EXPECT_EQ(make_scheme(kind, kBanks)->name(), to_string(kind));
  }
}

TEST(Factory, ParseIsCaseInsensitive) {
  EXPECT_EQ(scheme_from_string("camps-mod"), SchemeKind::kCampsMod);
  EXPECT_EQ(scheme_from_string("Base-Hit"), SchemeKind::kBaseHit);
}

TEST(Factory, UnknownNameThrows) {
  EXPECT_THROW(scheme_from_string("stride"), std::out_of_range);
}

TEST(Factory, ReplacementPolicyPairing) {
  // Section 5 fixes LRU everywhere except CAMPS-MOD.
  auto policy = [](SchemeKind kind) {
    return make_scheme(kind, kBanks)->make_replacement()->name();
  };
  EXPECT_EQ(policy(SchemeKind::kBase), "lru");
  EXPECT_EQ(policy(SchemeKind::kMmd), "lru");
  EXPECT_EQ(policy(SchemeKind::kCamps), "lru");
  EXPECT_EQ(policy(SchemeKind::kCampsMod), "util-recency");
}

}  // namespace
}  // namespace camps::prefetch
