// Observability integration: request-lifecycle tracing, the latency
// breakdown, machine-readable exports, and the epoch sampler — all running
// through the full system stack.

#include <gtest/gtest.h>
#include <set>
#include <string>
#include <utility>

#include "exp/runner.hpp"
#include "system/system.hpp"

namespace camps::system {
namespace {

SystemConfig quick(prefetch::SchemeKind scheme, u64 measure = 40000) {
  SystemConfig cfg = table1_config(scheme);
  cfg.core.warmup_instructions = measure / 5;
  cfg.core.measure_instructions = measure;
  return cfg;
}

TEST(Observability, TraceDisabledByDefault) {
  auto r = make_workload_system(quick(prefetch::SchemeKind::kCampsMod, 5000),
                                "LM1")
               ->run();
  EXPECT_EQ(r.trace_spans, nullptr);
  EXPECT_EQ(r.trace_recorded, 0u);
  EXPECT_EQ(r.trace_dropped, 0u);
}

TEST(Observability, TraceCoversEveryInstrumentedComponent) {
  SystemConfig cfg = quick(prefetch::SchemeKind::kCampsMod);
  cfg.obs.trace_enabled = true;
  cfg.obs.trace_capacity = 1u << 20;  // retain everything at this scale
  auto r = make_workload_system(cfg, "HM1")->run();

  ASSERT_NE(r.trace_spans, nullptr);
  ASSERT_FALSE(r.trace_spans->empty());
  EXPECT_EQ(r.trace_recorded, r.trace_spans->size() + r.trace_dropped);

  std::set<obs::Stage> stages;
  Tick prev_begin = 0;
  for (const obs::Span& s : *r.trace_spans) {
    stages.insert(s.stage);
    EXPECT_LE(s.begin, s.end);
    EXPECT_GE(s.begin, prev_begin) << "spans must be tick-ordered";
    prev_begin = s.begin;
  }

  // At least one span from each of the six instrumented components.
  EXPECT_TRUE(stages.count(obs::Stage::kHostRead));          // host_controller
  EXPECT_TRUE(stages.count(obs::Stage::kLinkDown) ||
              stages.count(obs::Stage::kLinkUp));            // serial_link
  EXPECT_TRUE(stages.count(obs::Stage::kXbarDown) ||
              stages.count(obs::Stage::kXbarUp));            // crossbar
  EXPECT_TRUE(stages.count(obs::Stage::kVaultQueue) ||
              stages.count(obs::Stage::kBufferHit));         // vault_controller
  EXPECT_TRUE(stages.count(obs::Stage::kBankService));       // dram/bank
  EXPECT_TRUE(stages.count(obs::Stage::kPfInsert) ||
              stages.count(obs::Stage::kPfEvict));           // prefetch_buffer
}

TEST(Observability, TracingCannotChangeSimulatedResults) {
  SystemConfig cfg = quick(prefetch::SchemeKind::kCamps, 20000);
  auto plain = make_workload_system(cfg, "MX1")->run();
  cfg.obs.trace_enabled = true;
  cfg.obs.trace_capacity = 4096;  // deliberately small: ring wrap is fine
  auto traced = make_workload_system(cfg, "MX1")->run();

  EXPECT_DOUBLE_EQ(plain.geomean_ipc, traced.geomean_ipc);
  EXPECT_EQ(plain.row_conflicts, traced.row_conflicts);
  EXPECT_EQ(plain.buffer_hits, traced.buffer_hits);
  EXPECT_DOUBLE_EQ(plain.energy_pj, traced.energy_pj);
  EXPECT_EQ(plain.events_executed, traced.events_executed);
  EXPECT_GT(traced.trace_dropped, 0u) << "small ring should have wrapped";
}

TEST(Observability, LatencyBreakdownIsPopulated) {
  auto r = make_workload_system(quick(prefetch::SchemeKind::kCampsMod), "HM1")
               ->run();
  EXPECT_GT(r.latency.total_read.count, 0u);
  EXPECT_GT(r.latency.total_read.mean, 0.0);
  EXPECT_LE(r.latency.total_read.p50, r.latency.total_read.p95);
  EXPECT_LE(r.latency.total_read.p95, r.latency.total_read.p99);
  EXPECT_GT(r.latency.link_down.count, 0u);
  EXPECT_GT(r.latency.link_up.count, 0u);
  EXPECT_GT(r.latency.vault_queue.count, 0u);
  EXPECT_GT(r.latency.bank_service.count, 0u);
  EXPECT_GT(r.latency.bank_service.mean, 0.0);
  // The whole round trip dominates any single stage.
  EXPECT_GT(r.latency.total_read.mean, r.latency.bank_service.mean);
  EXPECT_NE(r.summary().find("latency breakdown"), std::string::npos);
}

TEST(Observability, RunResultsJsonIsByteStableAndExcludesWallClock) {
  auto run = [] {
    return make_workload_system(quick(prefetch::SchemeKind::kCamps, 20000),
                                "LM1")
        ->run();
  };
  const RunResults a = run();
  const RunResults b = run();
  const std::string json = a.to_json(2);
  EXPECT_EQ(json, b.to_json(2)) << "identical runs must serialize identically";
  EXPECT_EQ(json.find("wall_seconds"), std::string::npos);
  EXPECT_NE(json.find("\"geomean_ipc\":"), std::string::npos);
  EXPECT_NE(json.find("\"latency\":"), std::string::npos);
  EXPECT_NE(json.find("\"bank_service\":"), std::string::npos);
  EXPECT_NE(json.find("\"cores\":"), std::string::npos);
}

TEST(Observability, EpochSamplerProducesTimeSeries) {
  SystemConfig cfg = quick(prefetch::SchemeKind::kCampsMod, 20000);
  cfg.obs.epoch_ticks = 24'000;  // 1 us of simulated time
  auto r = make_workload_system(cfg, "MX1")->run();

  ASSERT_NE(r.epochs, nullptr);
  ASSERT_GT(r.epochs->size(), 2u);
  Tick prev = 0;
  for (const obs::EpochSample& s : *r.epochs) {
    EXPECT_EQ(s.tick, prev + cfg.obs.epoch_ticks);
    prev = s.tick;
    EXPECT_LE(s.row_conflict_rate, 1.0);
    EXPECT_LE(s.buffer_hit_rate, 1.0);
  }
  // Cumulative counters are monotone across epochs.
  const auto& first = r.epochs->front();
  const auto& last = r.epochs->back();
  EXPECT_GE(last.demand_reads, first.demand_reads);
  EXPECT_GT(last.demand_reads, 0u);
}

TEST(Observability, FaultCountersReachRunResults) {
  // All four fault kinds at once. The names are restated here on purpose:
  // a producer renamed without its consumer reads as 0 on both sides, so
  // each name must also be registered and every injection kind must fire.
  SystemConfig cfg = quick(prefetch::SchemeKind::kCampsMod, 10000);
  cfg.hmc.fault.link_crc_rate = 0.01;
  cfg.hmc.fault.link_drop_rate = 0.002;
  cfg.hmc.fault.xbar_drop_rate = 0.002;
  cfg.hmc.fault.vault_stall_rate = 0.01;
  cfg.hmc.fault.seed = 3;
  auto sys = make_workload_system(cfg, "HM1");
  const RunResults r = sys->run();
  const StatRegistry& stats = sys->stats();
  const FaultSummary& f = r.faults;
  ASSERT_TRUE(f.active);

  const std::pair<const char*, u64> counters[] = {
      {"fault.crc_errors", f.crc_errors},
      {"fault.replays", f.replays},
      {"fault.link_drops", f.link_drops},
      {"fault.xbar_drops", f.xbar_drops},
      {"fault.vault_stalls", f.vault_stalls},
      {"fault.host_retries", f.host_retries},
      {"fault.host_poisoned", f.host_poisoned},
      {"fault.late_responses", f.late_responses},
      {"fault.degrade_flushes", f.degrade_flushes},
      {"fault.token_stall_ticks", f.token_stall_ticks},
  };
  const std::string dump = std::string("\n") + stats.dump();
  for (const auto& [name, value] : counters) {
    EXPECT_EQ(value, stats.counter_value(name)) << name;
    EXPECT_NE(dump.find(std::string("\n") + name + " = "), std::string::npos)
        << name << " is not registered";
  }
  const Histogram* recovery = stats.find_histogram("fault.recovery_cycles");
  ASSERT_NE(recovery, nullptr);
  EXPECT_EQ(f.recovery.count, recovery->count());

  EXPECT_GT(f.crc_errors, 0u);
  EXPECT_GT(f.link_drops, 0u);
  EXPECT_GT(f.xbar_drops, 0u);
  EXPECT_GT(f.vault_stalls, 0u);
  EXPECT_EQ(f.injected(), stats.counter_value("fault.crc_errors") +
                              stats.counter_value("fault.link_drops") +
                              stats.counter_value("fault.xbar_drops") +
                              stats.counter_value("fault.vault_stalls"));
}

// The acceptance bar for every machine-readable export: a sweep's results
// are byte-identical whether it ran on one worker thread or two.
TEST(Observability, ExportsAreIdenticalAcrossJobCounts) {
  auto sweep = [](u32 jobs) {
    exp::ExperimentConfig cfg;
    cfg.warmup_instructions = 2000;
    cfg.measure_instructions = 10000;
    cfg.jobs = jobs;
    cfg.obs.trace_enabled = true;
    cfg.obs.trace_capacity = 8192;
    exp::Runner runner(cfg);
    runner.run_all({"MX1", "LM1"}, {prefetch::SchemeKind::kBase,
                                    prefetch::SchemeKind::kCampsMod});
    return runner;
  };
  exp::Runner one = sweep(1);
  exp::Runner two = sweep(2);

  ASSERT_EQ(one.results().size(), 4u);
  ASSERT_EQ(one.results().size(), two.results().size());
  auto it1 = one.results().begin();
  auto it2 = two.results().begin();
  for (; it1 != one.results().end(); ++it1, ++it2) {
    EXPECT_EQ(it1->first, it2->first);
    EXPECT_EQ(it1->second.to_json(), it2->second.to_json())
        << it1->first.first;
    ASSERT_NE(it1->second.trace_spans, nullptr);
    ASSERT_NE(it2->second.trace_spans, nullptr);
    EXPECT_EQ(*it1->second.trace_spans, *it2->second.trace_spans)
        << it1->first.first;
  }
}

}  // namespace
}  // namespace camps::system
