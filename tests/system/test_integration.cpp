// Cross-cutting integration behaviours at full-system scale.
#include <gtest/gtest.h>
#include <string>

#include "system/system.hpp"

namespace camps::system {
namespace {

SystemConfig quick(prefetch::SchemeKind scheme, u64 measure = 30000) {
  SystemConfig cfg = table1_config(scheme);
  cfg.core.warmup_instructions = measure / 5;
  cfg.core.measure_instructions = measure;
  return cfg;
}

TEST(Integration, RefreshCostsPerformance) {
  SystemConfig with = quick(prefetch::SchemeKind::kNone);
  SystemConfig without = quick(prefetch::SchemeKind::kNone);
  without.hmc.vault.refresh_enabled = false;
  const auto r_with = make_workload_system(with, "HM1")->run();
  const auto r_without = make_workload_system(without, "HM1")->run();
  // Refresh steals bank time: never faster, usually measurably slower.
  EXPECT_LE(r_with.geomean_ipc, r_without.geomean_ipc * 1.005);
}

TEST(Integration, LinkUtilizationSaneAndDirectional) {
  const auto r =
      make_workload_system(quick(prefetch::SchemeKind::kNone), "HM2")->run();
  EXPECT_GT(r.link_down_utilization, 0.0);
  EXPECT_LT(r.link_down_utilization, 1.0);
  EXPECT_GT(r.link_up_utilization, 0.0);
  EXPECT_LT(r.link_up_utilization, 1.0);
  // Read responses carry 5 flits vs 1 request flit; writes add 5-flit
  // requests, but reads dominate -> upstream busier than downstream.
  EXPECT_GT(r.link_up_utilization, r.link_down_utilization);
}

TEST(Integration, EnergyScalesWithWork) {
  const auto small =
      make_workload_system(quick(prefetch::SchemeKind::kNone, 20000), "MX1")
          ->run();
  const auto large =
      make_workload_system(quick(prefetch::SchemeKind::kNone, 60000), "MX1")
          ->run();
  EXPECT_GT(large.energy_pj, small.energy_pj * 1.5);
}

TEST(Integration, StatsRegistryCarriesVaultDetail) {
  auto sys = make_workload_system(quick(prefetch::SchemeKind::kCampsMod),
                                  "LM1");
  sys->run();
  const std::string dump = sys->stats().dump();
  EXPECT_NE(dump.find("vault0.queue_wait_cycles"), std::string::npos);
  EXPECT_NE(dump.find("vault31.rb_hit"), std::string::npos);
  u64 accesses = 0;
  for (int v = 0; v < 32; ++v) {
    const std::string vault = "vault" + std::to_string(v);
    for (const char* kind : {".rb_hit", ".rb_empty", ".rb_conflict"}) {
      accesses += sys->stats().counter_value(vault + kind);
    }
  }
  EXPECT_GT(accesses, 0u);
}

TEST(Integration, StreamSchemeRunsFullSystem) {
  const auto r =
      make_workload_system(quick(prefetch::SchemeKind::kStream), "LM1")->run();
  EXPECT_FALSE(r.partial);
  EXPECT_EQ(r.scheme, "STREAM");
  EXPECT_GT(r.geomean_ipc, 0.0);
}

TEST(Integration, ClosedPagePolicyKillsConflicts) {
  SystemConfig open_cfg = quick(prefetch::SchemeKind::kNone);
  SystemConfig closed_cfg = quick(prefetch::SchemeKind::kNone);
  closed_cfg.hmc.vault.page_policy = hmc::PagePolicy::kClosed;
  const auto open_r = make_workload_system(open_cfg, "HM3")->run();
  const auto closed_r = make_workload_system(closed_cfg, "HM3")->run();
  EXPECT_LT(closed_r.row_conflict_rate, open_r.row_conflict_rate * 0.5);
}

// Robustness sweep: off-default geometries and sizes must simulate cleanly
// (no asserts, no deadlocks, sane results), since every ablation bench
// depends on them.
// ctest names each case after gtest's byte dump of this struct, so it has
// no padding: zeroed bytes stand where the compiler would leave
// uninitialised ones, and the names are the same on every build.
struct ConfigCase {
  u32 vaults;
  u32 banks;
  u32 links;
  u32 buffer_entries;
  hmc::PagePolicy policy;
  u8 zero[3] = {};
};
static_assert(sizeof(ConfigCase) == 20, "no padding in the case names");

class ConfigSweep : public ::testing::TestWithParam<ConfigCase> {};

TEST_P(ConfigSweep, RunsClean) {
  const ConfigCase& c = GetParam();
  SystemConfig cfg = quick(prefetch::SchemeKind::kCampsMod, 15000);
  cfg.hmc.geometry.vaults = c.vaults;
  cfg.hmc.geometry.banks_per_vault = c.banks;
  cfg.hmc.num_links = c.links;
  cfg.hmc.vault.buffer.entries = c.buffer_entries;
  cfg.hmc.vault.page_policy = c.policy;
  const auto r = make_workload_system(cfg, "MX2")->run();
  EXPECT_FALSE(r.partial);
  EXPECT_GT(r.geomean_ipc, 0.01);
  EXPECT_LE(r.row_conflict_rate, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConfigSweep,
    ::testing::Values(ConfigCase{32, 16, 4, 16, hmc::PagePolicy::kOpen},
                      ConfigCase{16, 16, 4, 16, hmc::PagePolicy::kOpen},
                      ConfigCase{8, 8, 2, 8, hmc::PagePolicy::kOpen},
                      ConfigCase{32, 16, 1, 4, hmc::PagePolicy::kOpen},
                      ConfigCase{32, 16, 4, 64, hmc::PagePolicy::kOpen},
                      ConfigCase{32, 32, 4, 16, hmc::PagePolicy::kOpen},
                      ConfigCase{32, 16, 4, 16, hmc::PagePolicy::kClosed},
                      ConfigCase{64, 8, 8, 16, hmc::PagePolicy::kOpen}));

TEST(Integration, MemoryLatencyDominatedByDramNotLinks) {
  // A sanity bound on the latency budget: at low load the round trip is a
  // few hundred CPU cycles, far below a microsecond.
  const auto r =
      make_workload_system(quick(prefetch::SchemeKind::kNone, 20000), "LM4")
          ->run();
  EXPECT_GT(r.mem_latency_cycles, 100.0);
  EXPECT_LT(r.mem_latency_cycles, 3000.0);
}

}  // namespace
}  // namespace camps::system
