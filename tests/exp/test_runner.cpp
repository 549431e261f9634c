#include "exp/runner.hpp"


#include <cmath>
#include <gtest/gtest.h>
#include <string>
#include <vector>

namespace camps::exp {
namespace {

ExperimentConfig tiny() {
  ExperimentConfig cfg;
  cfg.warmup_instructions = 4000;
  cfg.measure_instructions = 20000;
  return cfg;
}

TEST(Runner, WorkloadLists) {
  EXPECT_EQ(Runner::all_workloads().size(), 12u);
  EXPECT_EQ(Runner::workloads_of(workload::WorkloadClass::kHM).size(), 4u);
  EXPECT_EQ(Runner::workloads_of(workload::WorkloadClass::kLM).size(), 4u);
  EXPECT_EQ(Runner::workloads_of(workload::WorkloadClass::kMX).size(), 4u);
  EXPECT_EQ(Runner::workloads_of(workload::WorkloadClass::kMX)[0], "MX1");
}

TEST(Runner, CachesResults) {
  Runner runner(tiny());
  const auto& first = runner.result("LM1", prefetch::SchemeKind::kNone);
  const auto& second = runner.result("LM1", prefetch::SchemeKind::kNone);
  EXPECT_EQ(&first, &second) << "same run must not execute twice";
}

TEST(Runner, SpeedupOfSchemeAgainstItselfIsOne) {
  Runner runner(tiny());
  EXPECT_DOUBLE_EQ(runner.speedup("LM1", prefetch::SchemeKind::kNone,
                                  prefetch::SchemeKind::kNone),
                   1.0);
}

TEST(Runner, MeanSpeedupIsGeometric) {
  Runner runner(tiny());
  const double s1 = runner.speedup("LM1", prefetch::SchemeKind::kCampsMod,
                                   prefetch::SchemeKind::kBase);
  const double s2 = runner.speedup("LM2", prefetch::SchemeKind::kCampsMod,
                                   prefetch::SchemeKind::kBase);
  const double mean = runner.mean_speedup({"LM1", "LM2"},
                                          prefetch::SchemeKind::kCampsMod,
                                          prefetch::SchemeKind::kBase);
  EXPECT_NEAR(mean, std::sqrt(s1 * s2), 1e-9);
}

TEST(Runner, SoloIpcCachedAndPositive) {
  Runner runner(tiny());
  const double a = runner.solo_ipc("h264ref", prefetch::SchemeKind::kNone);
  EXPECT_GT(a, 0.0);
  EXPECT_LE(a, 4.0);
  EXPECT_DOUBLE_EQ(runner.solo_ipc("h264ref", prefetch::SchemeKind::kNone),
                   a);
}

TEST(Runner, WeightedSpeedupBounds) {
  Runner runner(tiny());
  const double ws =
      runner.weighted_speedup("LM4", prefetch::SchemeKind::kNone);
  // Eight co-runners, each at most (approximately) its solo speed; memory
  // contention keeps the total well below 8 but above 1.
  EXPECT_GT(ws, 1.0);
  EXPECT_LT(ws, 8.5);
}

TEST(Runner, HarmonicAtMostWeightedOverN) {
  // HM(x) <= AM(x): harmonic speedup <= weighted speedup / N elementwise.
  Runner runner(tiny());
  const double ws =
      runner.weighted_speedup("LM4", prefetch::SchemeKind::kNone);
  const double hs =
      runner.harmonic_speedup("LM4", prefetch::SchemeKind::kNone);
  EXPECT_GT(hs, 0.0);
  EXPECT_LE(hs, ws / 8.0 + 1e-9);
}

// Field-by-field equality of everything deterministic in RunResults.
// wall_seconds is host timing and is deliberately excluded.
void expect_bit_identical(const system::RunResults& a,
                          const system::RunResults& b) {
  EXPECT_EQ(a.scheme, b.scheme);
  ASSERT_EQ(a.cores.size(), b.cores.size());
  for (size_t i = 0; i < a.cores.size(); ++i) {
    EXPECT_EQ(a.cores[i].ipc, b.cores[i].ipc);
    EXPECT_EQ(a.cores[i].instructions, b.cores[i].instructions);
    EXPECT_EQ(a.cores[i].loads, b.cores[i].loads);
    EXPECT_EQ(a.cores[i].stores, b.cores[i].stores);
    EXPECT_EQ(a.cores[i].stall_cycles, b.cores[i].stall_cycles);
  }
  EXPECT_EQ(a.geomean_ipc, b.geomean_ipc);
  EXPECT_EQ(a.amat_cycles, b.amat_cycles);
  EXPECT_EQ(a.mem_latency_cycles, b.mem_latency_cycles);
  EXPECT_EQ(a.row_hits, b.row_hits);
  EXPECT_EQ(a.row_empties, b.row_empties);
  EXPECT_EQ(a.row_conflicts, b.row_conflicts);
  EXPECT_EQ(a.row_conflict_rate, b.row_conflict_rate);
  EXPECT_EQ(a.prefetches, b.prefetches);
  EXPECT_EQ(a.prefetch_accuracy, b.prefetch_accuracy);
  EXPECT_EQ(a.buffer_hits, b.buffer_hits);
  EXPECT_EQ(a.buffer_misses, b.buffer_misses);
  EXPECT_EQ(a.buffer_hit_rate, b.buffer_hit_rate);
  EXPECT_EQ(a.energy_pj, b.energy_pj);
  EXPECT_EQ(a.link_down_utilization, b.link_down_utilization);
  EXPECT_EQ(a.link_up_utilization, b.link_up_utilization);
  EXPECT_EQ(a.link_wakeups, b.link_wakeups);
  EXPECT_EQ(a.mpki, b.mpki);
  EXPECT_EQ(a.memory_reads, b.memory_reads);
  EXPECT_EQ(a.memory_writes, b.memory_writes);
  EXPECT_EQ(a.measure_span_ticks, b.measure_span_ticks);
  EXPECT_EQ(a.partial, b.partial);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

/// An ablation point: CAMPS's RUT threshold at `t` (Table I uses 4).
Variant rut_threshold(u32 t) {
  return {"threshold=" + std::to_string(t), [t](system::SystemConfig& c) {
            c.scheme_params.camps.utilization_threshold = t;
          }};
}

TEST(Runner, ParallelSweepBitIdenticalToSerial) {
  const std::vector<std::string> workloads = {"LM1", "HM1"};
  const std::vector<prefetch::SchemeKind> schemes = {
      prefetch::SchemeKind::kNone, prefetch::SchemeKind::kCampsMod};
  auto jobs = Runner::cross(workloads, schemes);
  jobs.push_back({"HM1", prefetch::SchemeKind::kCampsMod, rut_threshold(1)});

  ExperimentConfig serial_cfg = tiny();
  serial_cfg.jobs = 1;
  Runner serial(serial_cfg);
  serial.run_all(jobs);

  ExperimentConfig parallel_cfg = tiny();
  parallel_cfg.jobs = 4;
  Runner parallel(parallel_cfg);
  parallel.run_all(jobs);

  ASSERT_EQ(serial.results().size(), jobs.size());
  for (const auto& job : jobs) {
    SCOPED_TRACE(Runner::run_name(job.key()));
    expect_bit_identical(serial.results().at(job.key()),
                         parallel.results().at(job.key()));
  }
}

TEST(Runner, VariantIsCachedApartFromTheDefaultRun) {
  Runner runner(tiny());
  const auto scheme = prefetch::SchemeKind::kCampsMod;
  runner.run_all({{"LM1", scheme}, {"LM1", scheme, rut_threshold(1)}});
  EXPECT_EQ(runner.timing().runs, 2u);
  ASSERT_EQ(runner.results().size(), 2u);
  const auto& table1 = runner.results().at({"LM1", scheme});
  const auto& variant = runner.results().at({"LM1", scheme, "threshold=1"});
  EXPECT_EQ(&runner.result("LM1", scheme), &table1);
  EXPECT_EQ(&runner.result("LM1", scheme, rut_threshold(1)), &variant);
  EXPECT_GT(variant.prefetches, table1.prefetches)
      << "a lower RUT threshold fetches more rows";
  EXPECT_EQ(Runner::run_name({"LM1", scheme, "threshold=1"}),
            "LM1/CAMPS-MOD@threshold=1");
  // Requesting both again, with the same edit, runs nothing.
  runner.run_all({{"LM1", scheme}, {"LM1", scheme, rut_threshold(1)}});
  EXPECT_EQ(runner.timing().runs, 2u);
}

TEST(RunnerDeathTest, CachedKeyWithADifferentConfigAborts) {
  ExperimentConfig cfg = tiny();
  cfg.jobs = 1;
  Runner runner(cfg);
  const auto scheme = prefetch::SchemeKind::kCampsMod;
  runner.run_all({{"LM1", scheme, rut_threshold(1)}});
  // The same label with another edit names a different simulation.
  Variant relabelled = rut_threshold(2);
  relabelled.label = "threshold=1";
  EXPECT_DEATH(runner.run_all({{"LM1", scheme, relabelled}}),
               "LM1/CAMPS-MOD@threshold=1 requested with a different "
               "SystemConfig");
  EXPECT_DEATH(runner.result("LM1", scheme, relabelled), "different");
}

TEST(Runner, FaultCampaignBitIdenticalAcrossJobs) {
  // Fault decisions are pure hashes of (seed, site, unit, sequence) — no
  // shared RNG — so an injection campaign must be exactly as --jobs
  // invariant as a fault-free sweep, fault counters included.
  const std::vector<std::string> workloads = {"LM1", "HM1"};
  const std::vector<prefetch::SchemeKind> schemes = {
      prefetch::SchemeKind::kCampsMod};

  ExperimentConfig campaign = tiny();
  campaign.fault.link_crc_rate = 1e-3;
  campaign.fault.vault_stall_rate = 1e-4;
  campaign.fault.vault_degrade_threshold = 8;
  campaign.fault.seed = 42;

  ExperimentConfig serial_cfg = campaign;
  serial_cfg.jobs = 1;
  Runner serial(serial_cfg);
  serial.run_all(workloads, schemes);

  ExperimentConfig parallel_cfg = campaign;
  parallel_cfg.jobs = 4;
  Runner parallel(parallel_cfg);
  parallel.run_all(workloads, schemes);

  bool any_injected = false;
  for (const auto& w : workloads) {
    for (auto s : schemes) {
      SCOPED_TRACE(w + "/" + prefetch::to_string(s));
      const auto& a = serial.result(w, s);
      const auto& b = parallel.result(w, s);
      expect_bit_identical(a, b);
      EXPECT_TRUE(a.faults.active);
      EXPECT_EQ(a.faults.injected(), b.faults.injected());
      EXPECT_EQ(a.faults.crc_errors, b.faults.crc_errors);
      EXPECT_EQ(a.faults.replays, b.faults.replays);
      EXPECT_EQ(a.faults.vault_stalls, b.faults.vault_stalls);
      EXPECT_EQ(a.faults.host_retries, b.faults.host_retries);
      EXPECT_EQ(a.faults.host_poisoned, b.faults.host_poisoned);
      EXPECT_EQ(a.faults.degrade_flushes, b.faults.degrade_flushes);
      EXPECT_EQ(a.faults.recovery.count, b.faults.recovery.count);
      EXPECT_EQ(a.faults.recovery.mean, b.faults.recovery.mean);
      any_injected |= a.faults.injected() > 0;
    }
  }
  EXPECT_TRUE(any_injected) << "campaign rates too low to exercise anything";
}

TEST(Runner, RunAllPopulatesTimingAndCache) {
  ExperimentConfig cfg = tiny();
  cfg.jobs = 2;
  Runner runner(cfg);
  runner.run_all({"LM1"}, {prefetch::SchemeKind::kNone});
  EXPECT_EQ(runner.timing().runs, 1u);
  EXPECT_GT(runner.timing().events, 0u);
  EXPECT_GT(runner.timing().sweep_seconds, 0.0);
  // Re-running the same jobs is a pure cache hit: no new runs.
  runner.run_all({"LM1"}, {prefetch::SchemeKind::kNone});
  EXPECT_EQ(runner.timing().runs, 1u);
}

TEST(RunParallel, PreservesJobOrder) {
  std::vector<SimFn> sims;
  for (int i = 0; i < 8; ++i) {
    sims.push_back([i] {
      system::RunResults r;
      r.events_executed = static_cast<u64>(i);
      return r;
    });
  }
  const auto results = run_parallel(std::move(sims), 4);
  ASSERT_EQ(results.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(results[static_cast<size_t>(i)].events_executed,
              static_cast<u64>(i));
  }
}

TEST(Runner, ConfigPropagatesToSystem) {
  ExperimentConfig cfg = tiny();
  cfg.seed = 1234;
  const auto sys_cfg = cfg.system_config(prefetch::SchemeKind::kMmd);
  EXPECT_EQ(sys_cfg.seed, 1234u);
  EXPECT_EQ(sys_cfg.core.measure_instructions, 20000u);
  EXPECT_EQ(sys_cfg.scheme, prefetch::SchemeKind::kMmd);
}

}  // namespace
}  // namespace camps::exp
