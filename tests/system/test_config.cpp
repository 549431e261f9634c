#include "system/config.hpp"

#include <gtest/gtest.h>
#include <string>

#include "check/audit.hpp"
#include "system/system.hpp"

namespace camps::system {
namespace {

TEST(SystemConfig, TableIDefaults) {
  const SystemConfig cfg = table1_config();
  EXPECT_EQ(cfg.cores, 8u);
  EXPECT_EQ(cfg.core.issue_width, 4u);
  EXPECT_EQ(cfg.caches.l1.size_bytes, 32u * 1024);
  EXPECT_EQ(cfg.caches.l1.ways, 2u);
  EXPECT_EQ(cfg.caches.l2.size_bytes, 256u * 1024);
  EXPECT_EQ(cfg.caches.l2.ways, 4u);
  EXPECT_EQ(cfg.caches.l3.size_bytes, 16u * 1024 * 1024);
  EXPECT_EQ(cfg.caches.l3.ways, 16u);
  EXPECT_EQ(cfg.caches.l3.line_bytes, 64u);
  EXPECT_EQ(cfg.hmc.geometry.vaults, 32u);
  EXPECT_EQ(cfg.hmc.geometry.banks_per_vault, 16u);
  EXPECT_EQ(cfg.hmc.geometry.row_bytes, 1024u);
  EXPECT_EQ(cfg.hmc.vault.read_queue, 32u);
  EXPECT_EQ(cfg.hmc.vault.write_queue, 32u);
  EXPECT_EQ(cfg.hmc.num_links, 4u);
  EXPECT_EQ(cfg.hmc.vault.buffer.entries, 16u);
  EXPECT_EQ(cfg.hmc.vault.buffer.hit_latency, 22u);
  EXPECT_EQ(cfg.hmc.vault.timing.tRCD, 11u);
  EXPECT_EQ(cfg.scheme, prefetch::SchemeKind::kCampsMod);
}

TEST(SystemConfig, SchemeParameterPropagates) {
  EXPECT_EQ(table1_config(prefetch::SchemeKind::kBase).scheme,
            prefetch::SchemeKind::kBase);
}

TEST(SystemConfig, PatternGeometryMatchesAddressMap) {
  const SystemConfig cfg = table1_config();
  const auto g = cfg.pattern_geometry();
  EXPECT_EQ(g.line_bytes, 64u);
  EXPECT_EQ(g.row_bytes, 1024u);
  EXPECT_EQ(g.same_bank_row_stride, u64{1} << 19);
}

TEST(SystemConfig, CoreSliceDividesCapacity) {
  const SystemConfig cfg = table1_config();
  EXPECT_EQ(cfg.core_slice_bytes(), (u64{8} << 30) / 8);
}

TEST(SystemConfig, OverridesApply) {
  auto cfg = ConfigFile::parse(
      "cores = 4\n"
      "seed = 99\n"
      "core.issue_width = 2\n"
      "core.warmup = 1000\n"
      "core.measure = 5000\n"
      "hmc.vaults = 16\n"
      "buffer.entries = 8\n"
      "camps.threshold = 6\n"
      "scheme = MMD\n");
  const SystemConfig out = apply_overrides(table1_config(), cfg);
  EXPECT_EQ(out.cores, 4u);
  EXPECT_EQ(out.seed, 99u);
  EXPECT_EQ(out.core.issue_width, 2u);
  EXPECT_EQ(out.core.warmup_instructions, 1000u);
  EXPECT_EQ(out.core.measure_instructions, 5000u);
  EXPECT_EQ(out.hmc.geometry.vaults, 16u);
  EXPECT_EQ(out.hmc.vault.buffer.entries, 8u);
  EXPECT_EQ(out.scheme_params.camps.utilization_threshold, 6u);
  EXPECT_EQ(out.scheme, prefetch::SchemeKind::kMmd);
}

TEST(SystemConfig, OverridesKeepDefaultsWhenAbsent) {
  const SystemConfig out =
      apply_overrides(table1_config(), ConfigFile::parse(""));
  EXPECT_EQ(out.cores, 8u);
  EXPECT_EQ(out.scheme, prefetch::SchemeKind::kCampsMod);
}

TEST(SystemConfig, BankOverrideShapesEveryVault) {
  // hmc.banks sets the geometry, and every vault, RUT and stream detector
  // is built from it. run() aborts on an audit violation; vault-bank-shape
  // and (under CAMPS-MOD) rut-shape compare each vault with the geometry.
  for (const char* scheme : {"CAMPS-MOD", "STREAM"}) {
    const SystemConfig cfg = apply_overrides(
        table1_config(),
        ConfigFile::parse(std::string("hmc.banks = 8\n"
                                      "audit_every = 2000\n"
                                      "core.warmup = 2000\n"
                                      "core.measure = 6000\n"
                                      "scheme = ") +
                          scheme + "\n"));
    ASSERT_EQ(cfg.hmc.geometry.banks_per_vault, 8u);
    const auto sys = make_workload_system(cfg, "MX1");
    EXPECT_FALSE(sys->run().partial) << scheme;
    check::AuditReporter rep;
    sys->audit(rep);
    EXPECT_TRUE(rep.clean()) << scheme << ": " << rep.report();
  }
}

TEST(SystemConfig, Table1IniKeepsEveryDefault) {
  // configs/table1.ini promises every key at its default: applied to
  // camps_sim's starting config it must change nothing.
  SystemConfig base = table1_config();
  base.core.warmup_instructions = 100'000;
  base.core.measure_instructions = 500'000;
  const SystemConfig out = apply_overrides(
      base, ConfigFile::load(CAMPS_SOURCE_DIR "/configs/table1.ini"));
  EXPECT_EQ(out.scheme_params.mmd.max_degree,
            base.scheme_params.mmd.max_degree);
  EXPECT_TRUE(out == base);
}

TEST(SystemConfig, BadSchemeNameThrows) {
  auto cfg = ConfigFile::parse("scheme = turbo\n");
  EXPECT_THROW(apply_overrides(table1_config(), cfg), std::out_of_range);
}

TEST(SystemConfig, MisspelledKeyFailsLoudly) {
  // Regression: a typo'd key used to be silently ignored, leaving the
  // default in force — e.g. audits that never ran. It must throw, naming
  // the bad key and the intended one.
  auto cfg = ConfigFile::parse("audit_evry = 100000\n");
  try {
    apply_overrides(table1_config(), cfg);
    FAIL() << "misspelled key was accepted";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("audit_evry"), std::string::npos) << msg;
    EXPECT_NE(msg.find("audit_every"), std::string::npos) << msg;
  }
}

TEST(SystemConfig, FaultOverridesApply) {
  auto cfg = ConfigFile::parse(
      "[fault]\n"
      "link_crc_rate = 0.0001\n"
      "link_drop_rate = 0.001\n"
      "xbar_drop_rate = 0.002\n"
      "vault_stall_rate = 0.003\n"
      "vault_stall_ticks = 4800\n"
      "host_timeout_ticks = 96000\n"
      "host_backoff_ticks = 24000\n"
      "retry_budget = 5\n"
      "degrade_threshold = 8\n"
      "link_tokens = 64\n"
      "seed = 42\n");
  const SystemConfig out = apply_overrides(table1_config(), cfg);
  const fault::FaultConfig& f = out.hmc.fault;
  EXPECT_DOUBLE_EQ(f.link_crc_rate, 0.0001);
  EXPECT_DOUBLE_EQ(f.link_drop_rate, 0.001);
  EXPECT_DOUBLE_EQ(f.xbar_drop_rate, 0.002);
  EXPECT_DOUBLE_EQ(f.vault_stall_rate, 0.003);
  EXPECT_EQ(f.vault_stall_ticks, 4800u);
  EXPECT_EQ(f.host_timeout_ticks, 96000u);
  EXPECT_EQ(f.host_backoff_ticks, 24000u);
  EXPECT_EQ(f.host_retry_budget, 5u);
  EXPECT_EQ(f.vault_degrade_threshold, 8u);
  EXPECT_EQ(f.link_tokens, 64u);
  EXPECT_EQ(f.seed, 42u);
  EXPECT_TRUE(f.enabled());
}

TEST(SystemConfig, ValueThatOverflowsItsFieldThrowsNamingTheKey) {
  // Regression: 4294967302 used to wrap to 6 in the u32 field and run as
  // threshold 6 without a word.
  auto cfg = ConfigFile::parse("[camps]\nthreshold = 4294967302\n");
  try {
    apply_overrides(table1_config(), cfg);
    FAIL() << "an overflowing value was accepted";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("camps.threshold"), std::string::npos) << msg;
  }
  // The largest value that fits still applies.
  const SystemConfig out = apply_overrides(
      table1_config(), ConfigFile::parse("[camps]\nthreshold = 4294967295\n"));
  EXPECT_EQ(out.scheme_params.camps.utilization_threshold, 4294967295u);
}

TEST(SystemConfig, FaultsDisabledByDefault) {
  const SystemConfig out =
      apply_overrides(table1_config(), ConfigFile::parse(""));
  EXPECT_FALSE(out.hmc.fault.enabled());
}

}  // namespace
}  // namespace camps::system
