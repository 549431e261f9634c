// Whole-system integration: small-scale runs through the full stack.
#include <gtest/gtest.h>
#include <memory>
#include <vector>

#include "system/system.hpp"

namespace camps::system {
namespace {

SystemConfig quick(prefetch::SchemeKind scheme, u64 measure = 40000) {
  SystemConfig cfg = table1_config(scheme);
  cfg.core.warmup_instructions = measure / 5;
  cfg.core.measure_instructions = measure;
  return cfg;
}

TEST(System, RunsAWorkloadEndToEnd) {
  auto sys = make_workload_system(quick(prefetch::SchemeKind::kCampsMod),
                                  "MX1");
  const RunResults r = sys->run();
  EXPECT_FALSE(r.partial);
  EXPECT_EQ(r.scheme, "CAMPS-MOD");
  ASSERT_EQ(r.cores.size(), 8u);
  for (const auto& core : r.cores) {
    EXPECT_GT(core.ipc, 0.0);
    EXPECT_EQ(core.instructions, 40000u);
  }
  EXPECT_GT(r.geomean_ipc, 0.0);
  EXPECT_LE(r.geomean_ipc, 4.0);
  EXPECT_GT(r.amat_cycles, 1.0);
  EXPECT_GT(r.mem_latency_cycles, 50.0);
  EXPECT_GT(r.memory_reads, 0u);
  EXPECT_GT(r.mpki, 0.0);
  EXPECT_GT(r.energy_pj, 0.0);
  EXPECT_GT(r.prefetches, 0u);
}

TEST(System, DeterministicForSameSeed) {
  auto run = [] {
    auto sys = make_workload_system(quick(prefetch::SchemeKind::kCamps, 20000),
                                    "LM1");
    return sys->run();
  };
  const RunResults a = run();
  const RunResults b = run();
  EXPECT_DOUBLE_EQ(a.geomean_ipc, b.geomean_ipc);
  EXPECT_EQ(a.row_conflicts, b.row_conflicts);
  EXPECT_EQ(a.prefetches, b.prefetches);
  EXPECT_EQ(a.buffer_hits, b.buffer_hits);
  EXPECT_DOUBLE_EQ(a.energy_pj, b.energy_pj);
}

TEST(System, SeedChangesResults) {
  SystemConfig cfg = quick(prefetch::SchemeKind::kCamps, 20000);
  auto a = make_workload_system(cfg, "LM1")->run();
  cfg.seed = 2;
  auto b = make_workload_system(cfg, "LM1")->run();
  EXPECT_NE(a.row_conflicts, b.row_conflicts);
}

TEST(System, RunTwiceForbidden) {
  auto sys = make_workload_system(quick(prefetch::SchemeKind::kNone, 5000),
                                  "LM1");
  sys->run();
  EXPECT_DEATH(sys->run(), "once");
}

TEST(System, BaseSchemeHasNearZeroConflicts) {
  auto r = make_workload_system(quick(prefetch::SchemeKind::kBase), "MX1")
               ->run();
  EXPECT_LT(r.row_conflict_rate, 0.02)
      << "BASE precharges after every copy (Fig. 6)";
}

TEST(System, NoneSchemeDoesNotPrefetch) {
  auto r = make_workload_system(quick(prefetch::SchemeKind::kNone, 20000),
                                "LM2")
               ->run();
  EXPECT_EQ(r.prefetches, 0u);
  EXPECT_EQ(r.buffer_hits, 0u);
}

TEST(System, CampsModBeatsBaseOnMemoryIntensiveWork) {
  // The paper's headline direction, at reduced scale.
  const double base =
      make_workload_system(quick(prefetch::SchemeKind::kBase), "HM2")
          ->run()
          .geomean_ipc;
  const double camps_mod =
      make_workload_system(quick(prefetch::SchemeKind::kCampsMod), "HM2")
          ->run()
          .geomean_ipc;
  EXPECT_GT(camps_mod, base * 1.05);
}

TEST(System, HmWorkloadsHaveHigherMpkiThanLm) {
  const double hm =
      make_workload_system(quick(prefetch::SchemeKind::kNone), "HM1")
          ->run()
          .mpki;
  const double lm =
      make_workload_system(quick(prefetch::SchemeKind::kNone), "LM1")
          ->run()
          .mpki;
  EXPECT_GT(hm, lm);
}

TEST(System, MaxCyclesBoundsRuntime) {
  SystemConfig cfg = quick(prefetch::SchemeKind::kNone, 100000000);
  cfg.max_cycles = 50000;  // far too small to finish
  auto r = make_workload_system(cfg, "HM1")->run();
  EXPECT_TRUE(r.partial);
}

TEST(System, CustomTraceSources) {
  // The public API accepts arbitrary traces, not just Table II workloads.
  SystemConfig cfg = quick(prefetch::SchemeKind::kCampsMod, 10000);
  cfg.cores = 2;
  std::vector<std::unique_ptr<trace::TraceSource>> traces;
  for (u32 c = 0; c < 2; ++c) {
    trace::PatternParams p;
    p.region_bytes = u64{1} << 26;
    p.seed = c + 1;
    traces.push_back(std::make_unique<trace::SequentialStream>(
        p, cfg.pattern_geometry(), 64.0));
  }
  System sys(cfg, std::move(traces));
  const RunResults r = sys.run();
  EXPECT_EQ(r.cores.size(), 2u);
  EXPECT_GT(r.geomean_ipc, 0.0);
}

TEST(System, WindowOpenCountsRunAheadRecordsInUnitOrder) {
  // Two cores over lines warmed into their L1s, one record per cycle each,
  // so every record after the warmup runs ahead. The slow core retires one
  // instruction per record and the fast one four, so the fast core crosses
  // its warmup (40 instructions) at record 10 and its measurement boundary
  // (440) at record 110, while the slow core crosses them at records 40
  // and 440: the slow core opens and closes the window, and by then the
  // fast core has issued records past that tick in a chain. A fast record
  // at the tick of the slow core's step counts only if its core's step
  // runs first in the tick, i.e. if the fast core has the lower id.
  auto run = [](CoreId fast, u64& at_window_start) {
    SystemConfig cfg = quick(prefetch::SchemeKind::kBase);
    cfg.cores = 2;
    cfg.core.warmup_instructions = 40;
    cfg.core.measure_instructions = 400;
    const Addr lines[2] = {0, 64};
    std::vector<std::unique_ptr<trace::TraceSource>> traces;
    for (CoreId c = 0; c < 2; ++c) {
      std::vector<trace::TraceRecord> recs;
      for (u64 i = 0; i < 600; ++i) {
        // Odd records load, even ones store.
        const auto type = i % 2 == 0 ? AccessType::kRead : AccessType::kWrite;
        recs.push_back({c == fast ? 3u : 0u, lines[i % 2], type});
      }
      traces.push_back(std::make_unique<trace::VectorTraceSource>(recs));
    }
    System sys(cfg, std::move(traces));
    for (CoreId c = 0; c < 2; ++c) {
      for (const Addr line : lines) {
        sys.caches().read(c, Addr{c} * cfg.core_slice_bytes() + line, nullptr);
      }
    }
    sys.simulator().run_until(20'000 * sim::kCpuTicksPerCycle);
    const RunResults r = sys.run();
    at_window_start = sys.instructions_at_window_start();
    return r;
  };
  for (const CoreId fast : {CoreId{0}, CoreId{1}}) {
    SCOPED_TRACE(fast);
    const CoreId slow = 1 - fast;
    u64 at_window_start = 0;
    const RunResults r = run(fast, at_window_start);
    // The window opens and closes in the slow core's steps at records 40
    // and 440; the fast core has reached record 40 / 440 by then only if
    // it steps first.
    const u64 fast_records = fast < slow ? 40 : 39;
    EXPECT_EQ(at_window_start, 40 + 4 * fast_records);
    EXPECT_EQ(r.cores[slow].loads, 220u);
    EXPECT_EQ(r.cores[slow].stores, 220u);
    EXPECT_EQ(r.cores[fast].loads, 220u);
    EXPECT_EQ(r.cores[fast].stores, fast < slow ? 220u : 219u);
    EXPECT_EQ(r.cores[fast].instructions, 400u);
    EXPECT_FALSE(r.partial);
  }
}

TEST(System, WrongTraceCountAsserts) {
  SystemConfig cfg = quick(prefetch::SchemeKind::kNone, 1000);
  std::vector<std::unique_ptr<trace::TraceSource>> traces;  // none for 8 cores
  EXPECT_DEATH(System(cfg, std::move(traces)), "one trace source per core");
}

// Every Table II workload runs clean under the flagship scheme.
class WorkloadSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadSweep, CompletesWithSaneMetrics) {
  auto r = make_workload_system(quick(prefetch::SchemeKind::kCampsMod, 20000),
                                GetParam())
               ->run();
  EXPECT_FALSE(r.partial) << GetParam();
  EXPECT_GT(r.geomean_ipc, 0.05) << GetParam();
  EXPECT_GT(r.mpki, 0.5) << GetParam();
  EXPECT_LE(r.row_conflict_rate, 1.0);
  EXPECT_GE(r.prefetch_accuracy, 0.0);
  EXPECT_LE(r.prefetch_accuracy, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Table2, WorkloadSweep,
                         ::testing::Values("HM1", "HM2", "HM3", "HM4", "LM1",
                                           "LM2", "LM3", "LM4", "MX1", "MX2",
                                           "MX3", "MX4"));

}  // namespace
}  // namespace camps::system
