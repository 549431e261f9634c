// CAMPS decision flow (Figure 3 of the paper), checked transition by
// transition.
#include <gtest/gtest.h>

#include "check/audit.hpp"
#include "prefetch/scheme_camps.hpp"

namespace camps::prefetch {
namespace {

using dram::RowBufferOutcome;

AccessContext ctx(RowBufferOutcome outcome, BankId bank, RowId row) {
  AccessContext c;
  c.bank = bank;
  c.row = row;
  c.line = 0;
  c.type = AccessType::kRead;
  c.outcome = outcome;
  c.queued_same_row = 0;
  c.dram_cycle = 0;
  return c;
}

constexpr u32 kBanks = 16;  // Table I

CampsParams params(u32 threshold = 4) {
  CampsParams p;
  p.conflict_entries = 32;
  p.utilization_threshold = threshold;
  return p;
}

TEST(CampsScheme, RowHitsBelowThresholdDoNothing) {
  CampsScheme camps(kBanks, params(4));
  // First access opened the row (empty), then two hits: counts 1,2,3.
  EXPECT_FALSE(camps.on_demand_access(ctx(RowBufferOutcome::kEmpty, 0, 5)).any());
  EXPECT_FALSE(camps.on_demand_access(ctx(RowBufferOutcome::kHit, 0, 5)).any());
  EXPECT_FALSE(camps.on_demand_access(ctx(RowBufferOutcome::kHit, 0, 5)).any());
  EXPECT_EQ(camps.rut().entry(0)->count, 3u);
}

TEST(CampsScheme, ThresholdTriggersFetchAndPrecharge) {
  CampsScheme camps(kBanks, params(4));
  camps.on_demand_access(ctx(RowBufferOutcome::kEmpty, 0, 5));
  camps.on_demand_access(ctx(RowBufferOutcome::kHit, 0, 5));
  camps.on_demand_access(ctx(RowBufferOutcome::kHit, 0, 5));
  const auto d = camps.on_demand_access(ctx(RowBufferOutcome::kHit, 0, 5));
  EXPECT_TRUE(d.fetch_row);
  EXPECT_TRUE(d.precharge_after);
  EXPECT_FALSE(d.serve_via_buffer) << "the demand was served normally";
  EXPECT_FALSE(camps.rut().entry(0).has_value())
      << "RUT entry removed after the fetch";
  EXPECT_EQ(camps.threshold_prefetches(), 1u);
}

TEST(CampsScheme, ThresholdOneFiresImmediately) {
  CampsScheme camps(kBanks, params(1));
  const auto d = camps.on_demand_access(ctx(RowBufferOutcome::kEmpty, 0, 5));
  EXPECT_TRUE(d.fetch_row);
}

TEST(CampsScheme, DisplacedRutEntryMovesToConflictTable) {
  CampsScheme camps(kBanks, params());
  camps.on_demand_access(ctx(RowBufferOutcome::kEmpty, 0, 5));
  // A different row opens in bank 0: row 5's profile moves to the CT.
  camps.on_demand_access(ctx(RowBufferOutcome::kConflict, 0, 9));
  EXPECT_TRUE(camps.conflict_table().contains(BankRow{0, 5}));
  EXPECT_EQ(camps.rut().entry(0)->row, 9u);
}

TEST(CampsScheme, ConflictTableHitTriggersFetch) {
  CampsScheme camps(kBanks, params());
  camps.on_demand_access(ctx(RowBufferOutcome::kEmpty, 0, 5));     // profile 5
  camps.on_demand_access(ctx(RowBufferOutcome::kConflict, 0, 9));  // 5 -> CT
  // Row 5 reactivates: it is a proven conflict-causer.
  const auto d = camps.on_demand_access(ctx(RowBufferOutcome::kConflict, 0, 5));
  EXPECT_TRUE(d.fetch_row);
  EXPECT_TRUE(d.precharge_after);
  EXPECT_FALSE(camps.conflict_table().contains(BankRow{0, 5}))
      << "CT entry removed after the fetch";
  EXPECT_EQ(camps.conflict_prefetches(), 1u);
}

TEST(CampsScheme, ConflictFetchLeavesRutAlone) {
  CampsScheme camps(kBanks, params());
  camps.on_demand_access(ctx(RowBufferOutcome::kEmpty, 0, 5));
  camps.on_demand_access(ctx(RowBufferOutcome::kConflict, 0, 9));  // 5 -> CT
  camps.on_demand_access(ctx(RowBufferOutcome::kConflict, 0, 5));  // CT hit
  // Figure 3: on a CT hit the row is fetched and the bank precharged; the
  // RUT is not updated for it (entry for row 9 was displaced to the CT).
  EXPECT_FALSE(camps.rut().entry(0).has_value());
  EXPECT_TRUE(camps.conflict_table().contains(BankRow{0, 9}));
}

TEST(CampsScheme, MissWithNoCtEntryStartsProfiling) {
  CampsScheme camps(kBanks, params());
  const auto d = camps.on_demand_access(ctx(RowBufferOutcome::kEmpty, 3, 42));
  EXPECT_FALSE(d.any());
  ASSERT_TRUE(camps.rut().entry(3).has_value());
  EXPECT_EQ(camps.rut().entry(3)->row, 42u);
  EXPECT_EQ(camps.rut().entry(3)->count, 1u);
}

TEST(CampsScheme, HitsAcrossBanksProfileIndependently) {
  CampsScheme camps(kBanks, params(3));
  camps.on_demand_access(ctx(RowBufferOutcome::kEmpty, 0, 1));
  camps.on_demand_access(ctx(RowBufferOutcome::kEmpty, 1, 2));
  camps.on_demand_access(ctx(RowBufferOutcome::kHit, 0, 1));
  camps.on_demand_access(ctx(RowBufferOutcome::kHit, 1, 2));
  const auto d0 = camps.on_demand_access(ctx(RowBufferOutcome::kHit, 0, 1));
  EXPECT_TRUE(d0.fetch_row);
  // Bank 1 is still one access short.
  EXPECT_EQ(camps.rut().entry(1)->count, 2u);
}

TEST(CampsScheme, StaleRutEntryOnHitPathDisplacesToCt) {
  // A row can be closed by refresh and a different row opened without a
  // conflict classification; the stale profile must still migrate.
  CampsScheme camps(kBanks, params());
  camps.on_demand_access(ctx(RowBufferOutcome::kEmpty, 0, 5));
  camps.on_demand_access(ctx(RowBufferOutcome::kHit, 0, 7));  // stale bank 0
  EXPECT_TRUE(camps.conflict_table().contains(BankRow{0, 5}));
  EXPECT_EQ(camps.rut().entry(0)->row, 7u);
}

TEST(CampsScheme, HitOnAnArchivedRowIsItsReactivation) {
  // Row 5 is re-activated for a request the scheme has not seen yet, and
  // another request's hit on it comes first: the hit takes the CT branch,
  // so row 5 is never profiled and archived at once.
  CampsScheme camps(kBanks, params());
  camps.on_demand_access(ctx(RowBufferOutcome::kEmpty, 0, 5));
  camps.on_demand_access(ctx(RowBufferOutcome::kConflict, 0, 9));  // 5 -> CT
  const auto d = camps.on_demand_access(ctx(RowBufferOutcome::kHit, 0, 5));
  EXPECT_TRUE(d.fetch_row);
  EXPECT_TRUE(d.precharge_after);
  EXPECT_EQ(camps.conflict_prefetches(), 1u);
  EXPECT_FALSE(camps.conflict_table().contains(BankRow{0, 5}));
  EXPECT_TRUE(camps.conflict_table().contains(BankRow{0, 9}));
  EXPECT_FALSE(camps.rut().entry(0).has_value());
  check::AuditReporter rep;
  camps.audit(rep);
  EXPECT_TRUE(rep.clean()) << rep.report();
}

TEST(CampsScheme, CtCapacityEvictsLru) {
  CampsParams p = params();
  p.conflict_entries = 2;
  CampsScheme camps(kBanks, p);
  // Displace three profiles into the 2-entry CT.
  for (RowId r = 0; r < 4; ++r) {
    camps.on_demand_access(ctx(r == 0 ? RowBufferOutcome::kEmpty
                                      : RowBufferOutcome::kConflict,
                               0, 100 + r));
  }
  EXPECT_FALSE(camps.conflict_table().contains(BankRow{0, 100}))
      << "oldest conflict record evicted";
  EXPECT_TRUE(camps.conflict_table().contains(BankRow{0, 102}));
}

TEST(CampsScheme, NamesFollowVariant) {
  EXPECT_EQ(CampsScheme(kBanks, params()).name(), "CAMPS");
  EXPECT_EQ(CampsScheme(kBanks, params(), true).name(), "CAMPS-MOD");
}

TEST(CampsScheme, ReplacementPolicyFollowsVariant) {
  EXPECT_EQ(CampsScheme(kBanks, params()).make_replacement()->name(), "lru");
  EXPECT_EQ(CampsScheme(kBanks, params(), true).make_replacement()->name(),
            "util-recency");
}

TEST(CampsScheme, PaperHardwareOverhead) {
  // Section 3.3: (16 + 32) x 20 bits = 120 bytes per vault; x32 vaults =
  // 3.75 KB per cube.
  CampsScheme camps(kBanks, params());
  EXPECT_EQ(camps.overhead_bits(), 960u);
  EXPECT_EQ(32 * camps.overhead_bits() / 8, 3840u);  // 3.75 KB
}

// Threshold sweep: the fetch fires exactly at the configured count.
class ThresholdSweep : public ::testing::TestWithParam<u32> {};

TEST_P(ThresholdSweep, FiresExactlyAtThreshold) {
  const u32 threshold = GetParam();
  CampsScheme camps(kBanks, params(threshold));
  u32 count = 0;
  // First access opens the row; further accesses are hits.
  auto outcome = RowBufferOutcome::kEmpty;
  for (u32 i = 0; i < threshold - 1; ++i) {
    EXPECT_FALSE(camps.on_demand_access(ctx(outcome, 0, 5)).any())
        << "access " << i + 1 << " of threshold " << threshold;
    outcome = RowBufferOutcome::kHit;
    ++count;
  }
  EXPECT_TRUE(camps.on_demand_access(ctx(outcome, 0, 5)).fetch_row);
  (void)count;
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdSweep,
                         ::testing::Values(2, 3, 4, 8, 16));

}  // namespace
}  // namespace camps::prefetch
