// Every reported percentile is a statistic of its own samples:
// min <= p50 <= p95 <= p99 <= max, for every registry histogram and every
// RunResults stage, on a fault-free run and on a fault campaign whose
// recovery latencies span four orders of magnitude.

#include <gtest/gtest.h>
#include <string>

#include "system/system.hpp"

namespace camps::system {
namespace {

void expect_ordered(const std::string& name, double min, double p50,
                    double p95, double p99, double max) {
  EXPECT_LE(min, p50) << name;
  EXPECT_LE(p50, p95) << name;
  EXPECT_LE(p95, p99) << name;
  EXPECT_LE(p99, max) << name;
}

/// Checks `stage` against the registry histogram it summarises.
void expect_stage_bounded(const StatRegistry& stats, const std::string& name,
                          const StageStats& stage) {
  const Histogram* h = stats.find_histogram(name);
  ASSERT_NE(h, nullptr) << name;
  ASSERT_EQ(stage.count, h->count()) << name;
  if (stage.count == 0) return;
  expect_ordered(name, static_cast<double>(h->min()), stage.p50, stage.p95,
                 stage.p99, static_cast<double>(h->max()));
}

void check_run(const std::string& workload, const fault::FaultConfig& fault) {
  SystemConfig cfg = table1_config(prefetch::SchemeKind::kCampsMod);
  cfg.core.warmup_instructions = 10'000;
  cfg.core.measure_instructions = 50'000;
  cfg.hmc.fault = fault;
  auto sys = make_workload_system(cfg, workload);
  const RunResults r = sys->run();
  const StatRegistry& stats = sys->stats();

  int sampled = 0;
  for (const auto& [name, h] : stats.histograms()) {
    if (h.count() == 0) continue;
    ++sampled;
    expect_ordered(name, static_cast<double>(h.min()), h.percentile(50),
                   h.percentile(95), h.percentile(99),
                   static_cast<double>(h.max()));
  }
  EXPECT_GT(sampled, 32) << "every vault and latency stage should sample";

  const LatencyBreakdown& l = r.latency;
  expect_stage_bounded(stats, "latency.host_queue_cycles", l.host_queue);
  expect_stage_bounded(stats, "latency.link_down_cycles", l.link_down);
  expect_stage_bounded(stats, "latency.link_up_cycles", l.link_up);
  expect_stage_bounded(stats, "latency.vault_queue_cycles", l.vault_queue);
  expect_stage_bounded(stats, "latency.bank_service_cycles", l.bank_service);
  expect_stage_bounded(stats, "latency.buffer_hit_cycles", l.buffer_hit);
  expect_stage_bounded(stats, "latency.total_read_cycles", l.total_read);
  if (fault.enabled()) {
    ASSERT_TRUE(r.faults.active);
    EXPECT_GT(r.faults.recovery.count, 0u);
    expect_stage_bounded(stats, "fault.recovery_cycles", r.faults.recovery);
  }
}

TEST(PercentileBounds, FaultFreeHm2) { check_run("HM2", fault::FaultConfig{}); }

TEST(PercentileBounds, Hm1FaultCampaign) {
  // The campaign the ROADMAP reproduces the saturated-percentile bug with:
  // host timeouts of 24,000 cycles put recoveries far past small latencies.
  fault::FaultConfig fault;
  fault.link_crc_rate = 0.001;
  fault.link_drop_rate = 0.0005;
  fault.seed = 7;
  check_run("HM1", fault);
}

}  // namespace
}  // namespace camps::system
