// FaultPlan determinism and bookkeeping.
#include "fault/fault_plan.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/stats.hpp"

namespace camps::fault {
namespace {

TEST(FaultPlan, DefaultConfigInjectsNothing) {
  StatRegistry stats;
  FaultPlan plan(FaultConfig{}, stats);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_FALSE(plan.roll(Site::kLinkDownCrc, 0));
    EXPECT_FALSE(plan.roll(Site::kVaultStall, static_cast<u32>(i % 32)));
  }
  for (const char* injected : {"fault.crc_errors", "fault.link_drops",
                               "fault.xbar_drops", "fault.vault_stalls"}) {
    EXPECT_EQ(stats.counter_value(injected), 0u) << injected;
  }
}

TEST(FaultPlan, RateOneAlwaysFaults) {
  FaultConfig cfg;
  cfg.link_crc_rate = 1.0;
  StatRegistry stats;
  FaultPlan plan(cfg, stats);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(plan.roll(Site::kLinkDownCrc, 2));
    EXPECT_TRUE(plan.roll(Site::kLinkUpCrc, 2));
  }
}

TEST(FaultPlan, DecisionsAreAPureFunctionOfCoordinates) {
  FaultConfig cfg;
  cfg.link_crc_rate = 0.3;
  cfg.seed = 7;

  // Plan A rolls only unit 0; plan B interleaves three units. The unit-0
  // decision stream must be identical — this independence is what makes
  // fault campaigns byte-stable across --jobs orderings.
  StatRegistry stats;
  FaultPlan a(cfg, stats);
  FaultPlan b(cfg, stats);
  std::vector<bool> stream_a, stream_b;
  for (int i = 0; i < 2000; ++i) {
    stream_a.push_back(a.roll(Site::kLinkDownCrc, 0));
  }
  for (int i = 0; i < 2000; ++i) {
    stream_b.push_back(b.roll(Site::kLinkDownCrc, 0));
    b.roll(Site::kLinkDownCrc, 1);
    b.roll(Site::kLinkUpCrc, 0);  // same unit, different site
  }
  EXPECT_EQ(stream_a, stream_b);
}

TEST(FaultPlan, RateMatchesFrequency) {
  FaultConfig cfg;
  cfg.link_drop_rate = 0.1;
  StatRegistry stats;
  FaultPlan plan(cfg, stats);
  int faults = 0;
  for (int i = 0; i < 10000; ++i) {
    if (plan.roll(Site::kLinkDownDrop, 0)) ++faults;
  }
  // 1000 expected; +-4.5 sigma keeps the test deterministic yet tight.
  EXPECT_GT(faults, 860);
  EXPECT_LT(faults, 1140);
}

TEST(FaultPlan, SeedChangesTheDecisionStream) {
  FaultConfig cfg1, cfg2;
  cfg1.link_crc_rate = cfg2.link_crc_rate = 0.5;
  cfg1.seed = 1;
  cfg2.seed = 2;
  StatRegistry stats;
  FaultPlan p1(cfg1, stats), p2(cfg2, stats);
  bool differ = false;
  for (int i = 0; i < 200; ++i) {
    differ |= p1.roll(Site::kLinkDownCrc, 0) != p2.roll(Site::kLinkDownCrc, 0);
  }
  EXPECT_TRUE(differ);
}

TEST(FaultPlan, TargetedFaultHitsExactCoordinate) {
  FaultConfig cfg;
  cfg.targeted.push_back({Site::kVaultStall, /*unit=*/3, /*sequence=*/2});
  StatRegistry stats;
  FaultPlan plan(cfg, stats);
  EXPECT_EQ(plan.next_sequence(Site::kVaultStall, 3), 0u);
  EXPECT_FALSE(plan.roll(Site::kVaultStall, 3));  // sequence 0
  EXPECT_FALSE(plan.roll(Site::kVaultStall, 3));  // sequence 1
  EXPECT_TRUE(plan.roll(Site::kVaultStall, 3));   // sequence 2 <- targeted
  EXPECT_FALSE(plan.roll(Site::kVaultStall, 3));  // sequence 3
  EXPECT_EQ(plan.next_sequence(Site::kVaultStall, 3), 4u);
  // Same sequence at a different unit or site: untouched.
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(plan.roll(Site::kVaultStall, 4));
    EXPECT_FALSE(plan.roll(Site::kXbarDrop, 3));
  }
}

TEST(FaultPlan, CountersAndHistogramRegister) {
  StatRegistry stats;
  FaultConfig cfg;
  cfg.link_crc_rate = 0.5;
  FaultPlan plan(cfg, stats);
  plan.count_crc_error();
  plan.count_replay(/*recovery_ticks=*/2400);
  plan.count_link_drop();
  plan.count_xbar_drop();
  plan.count_vault_stall();
  plan.count_host_retry();
  plan.count_host_poison(/*recovery_ticks=*/4800);
  plan.count_late_response();
  plan.count_degrade_flush();
  plan.count_token_stall_ticks(17);
  EXPECT_EQ(stats.counter_value("fault.crc_errors"), 1u);
  EXPECT_EQ(stats.counter_value("fault.replays"), 1u);
  EXPECT_EQ(stats.counter_value("fault.link_drops"), 1u);
  EXPECT_EQ(stats.counter_value("fault.xbar_drops"), 1u);
  EXPECT_EQ(stats.counter_value("fault.vault_stalls"), 1u);
  EXPECT_EQ(stats.counter_value("fault.host_retries"), 1u);
  EXPECT_EQ(stats.counter_value("fault.host_poisoned"), 1u);
  EXPECT_EQ(stats.counter_value("fault.late_responses"), 1u);
  EXPECT_EQ(stats.counter_value("fault.degrade_flushes"), 1u);
  EXPECT_EQ(stats.counter_value("fault.token_stall_ticks"), 17u);
  const Histogram* h = stats.find_histogram("fault.recovery_cycles");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);  // one replay + one poison
}

TEST(FaultPlan, EnabledReflectsConfiguration) {
  FaultConfig off;
  EXPECT_FALSE(off.enabled());
  FaultConfig rate;
  rate.vault_stall_rate = 1e-6;
  EXPECT_TRUE(rate.enabled());
  FaultConfig tokens;
  tokens.link_tokens = 32;
  EXPECT_TRUE(tokens.enabled());
  FaultConfig targeted;
  targeted.targeted.push_back({Site::kXbarDrop, 0, 0});
  EXPECT_TRUE(targeted.enabled());
}

}  // namespace
}  // namespace camps::fault
