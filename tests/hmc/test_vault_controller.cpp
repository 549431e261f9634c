// Vault controller: queues, FR-FCFS, prefetch engine integration, refresh.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "energy/energy_model.hpp"
#include "hmc/vault_controller.hpp"
#include "prefetch/factory.hpp"

namespace camps::hmc {
namespace {

struct Harness {
  sim::Simulator sim;
  StatRegistry stats;
  std::vector<std::pair<u64, Tick>> responses;  // (request id, ready tick)
  energy::EnergyModel energy;  ///< Counts the vault's DRAM commands.
  std::unique_ptr<VaultController> vault;
  u64 next_id = 1;

  explicit Harness(prefetch::SchemeKind scheme = prefetch::SchemeKind::kNone,
                   bool refresh = false,
                   const prefetch::SchemeParams& params = {},
                   PagePolicy policy = PagePolicy::kOpen) {
    VaultConfig cfg;
    cfg.refresh_enabled = refresh;
    cfg.page_policy = policy;
    const HmcGeometry geometry;
    vault = std::make_unique<VaultController>(
        sim, 0, geometry, cfg,
        prefetch::make_scheme(scheme, geometry.banks_per_vault, params),
        &energy, stats, [this](const MemRequest& req, Tick ready) {
          responses.emplace_back(req.id, ready);
        });
  }

  u64 submit(BankId bank, RowId row, LineId column,
             AccessType type = AccessType::kRead, Tick when = 0) {
    MemRequest req;
    req.id = next_id++;
    req.type = type;
    req.created = when;
    DecodedAddr d;
    d.vault = 0;
    d.bank = bank;
    d.row = row;
    d.column = column;
    const u64 id = req.id;
    sim.schedule_at(when, [this, req, d] {
      vault->receive(req, d, sim.now());
    });
    return id;
  }

  /// Runs until all demand work completes. With refresh enabled the vault
  /// schedules maintenance wake-ups forever, so an unbounded sim.run()
  /// would never return; the horizon comfortably covers every test's
  /// traffic while executing any refreshes that fall inside it.
  void run(Tick horizon = 100'000'000) {
    sim.run_until(horizon);
    CAMPS_ASSERT_MSG(vault->idle(), "test traffic did not drain in horizon");
  }

  std::optional<Tick> response_time(u64 id) const {
    for (const auto& [rid, t] : responses) {
      if (rid == id) return t;
    }
    return std::nullopt;
  }
};

constexpr Tick kDram = sim::kDramTicksPerCycle;

TEST(VaultController, SingleReadLatency) {
  Harness h;
  const u64 id = h.submit(0, 5, 3);
  h.run();
  ASSERT_TRUE(h.response_time(id).has_value());
  // Cold read: ACT (tRCD=11) + RD (tCL=11 + tBURST=4) = 26 DRAM cycles
  // minimum, plus scheduler wake-up granularity.
  const auto& t = dram::default_timing();
  const Tick floor = (t.tRCD + t.tCL + t.tBURST) * kDram;
  EXPECT_GE(*h.response_time(id), floor);
  EXPECT_LE(*h.response_time(id), floor + 4 * kDram);
  EXPECT_EQ(h.vault->demand_reads(), 1u);
  EXPECT_EQ(h.vault->row_empties(), 1u);
  EXPECT_TRUE(h.vault->idle());
}

TEST(VaultController, RowHitFasterThanRowMiss) {
  Harness h;
  const u64 a = h.submit(0, 5, 0, AccessType::kRead, 0);
  const u64 b = h.submit(0, 5, 1, AccessType::kRead, 0);
  h.run();
  ASSERT_TRUE(h.response_time(a) && h.response_time(b));
  // Second access hits the open row: spaced by tCCD, far less than a full
  // ACT+RD round.
  const Tick gap = *h.response_time(b) - *h.response_time(a);
  EXPECT_LE(gap, dram::default_timing().tCCD * kDram + kDram);
  EXPECT_EQ(h.vault->row_hits(), 1u);
}

TEST(VaultController, ConflictClassifiedAndServed) {
  Harness h;
  const u64 a = h.submit(0, 5, 0);
  // Give the first row time to open, then hit the same bank, other row.
  const u64 b = h.submit(0, 9, 0, AccessType::kRead, 40 * kDram);
  h.run();
  ASSERT_TRUE(h.response_time(a) && h.response_time(b));
  EXPECT_EQ(h.vault->row_conflicts(), 1u);
}

TEST(VaultController, WritesArePostedAndCounted) {
  Harness h;
  h.submit(0, 5, 0, AccessType::kWrite);
  h.run();
  EXPECT_TRUE(h.responses.empty()) << "posted writes produce no response";
  EXPECT_EQ(h.vault->demand_writes(), 1u);
  EXPECT_TRUE(h.vault->idle());
}

TEST(VaultController, ManyRequestsAllComplete) {
  Harness h;
  u64 x = 9;
  std::vector<u64> reads;
  for (int i = 0; i < 300; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const BankId bank = (x >> 10) % 16;
    const RowId row = (x >> 20) % 64;
    const LineId col = (x >> 40) % 16;
    if ((x & 7) != 0) {
      reads.push_back(h.submit(bank, row, col, AccessType::kRead,
                               static_cast<Tick>(i) * 2 * kDram));
    } else {
      h.submit(bank, row, col, AccessType::kWrite,
               static_cast<Tick>(i) * 2 * kDram);
    }
  }
  h.run();
  EXPECT_EQ(h.responses.size(), reads.size());
  for (u64 id : reads) EXPECT_TRUE(h.response_time(id)) << "read " << id;
  EXPECT_TRUE(h.vault->idle());
}

TEST(VaultController, ResponsesNondecreasingPerBankRow) {
  // FIFO within the same line stream (no reordering of identical work).
  Harness h;
  std::vector<u64> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(h.submit(0, 5, static_cast<LineId>(i % 16),
                           AccessType::kRead, static_cast<Tick>(i) * kDram));
  }
  h.run();
  Tick prev = 0;
  for (u64 id : ids) {
    ASSERT_TRUE(h.response_time(id));
    EXPECT_GE(*h.response_time(id), prev);
    prev = *h.response_time(id);
  }
}

TEST(VaultController, BasePrefetchesAndPrecharges) {
  Harness h(prefetch::SchemeKind::kBase);
  const u64 a = h.submit(0, 5, 0);
  h.run();
  ASSERT_TRUE(h.response_time(a));
  EXPECT_EQ(h.vault->prefetches_issued(), 1u);
  EXPECT_TRUE(h.vault->buffer().contains(BankRow{0, 5}));
  // BASE serves through the copy: latency >= ACT + tCL + tROWFETCH + buffer
  // hit latency.
  const auto& t = dram::default_timing();
  const Tick floor = (t.tRCD + t.tCL + t.tROWFETCH) * kDram +
                     VaultConfig{}.buffer.hit_latency * sim::kCpuTicksPerCycle;
  EXPECT_GE(*h.response_time(a), floor);
}

TEST(VaultController, BaseSecondAccessServedFromBuffer) {
  Harness h(prefetch::SchemeKind::kBase);
  h.submit(0, 5, 0);
  const u64 b = h.submit(0, 5, 7, AccessType::kRead, 200 * kDram);
  h.run();
  ASSERT_TRUE(h.response_time(b));
  EXPECT_EQ(h.vault->buffer().hits(), 1u);
  EXPECT_EQ(h.vault->demand_reads(), 1u) << "only the first read hit DRAM";
  // Buffer hit: ~22 CPU cycles after arrival.
  EXPECT_LE(*h.response_time(b) - 200 * kDram,
            VaultConfig{}.buffer.hit_latency * sim::kCpuTicksPerCycle +
                2 * kDram);
}

TEST(VaultController, BaseLeavesNoRowConflicts) {
  Harness h(prefetch::SchemeKind::kBase);
  // Interleave two rows of the same bank — the BASE precharge-after-copy
  // policy must prevent any conflict classification (Fig. 6's note).
  for (int i = 0; i < 20; ++i) {
    h.submit(0, static_cast<RowId>(i % 2 ? 5 : 9), static_cast<LineId>(i % 16),
             AccessType::kRead, static_cast<Tick>(i) * 80 * kDram);
  }
  h.run();
  EXPECT_EQ(h.vault->row_conflicts(), 0u);
}

TEST(VaultController, CampsThresholdFetchServesLaterAccessesFromBuffer) {
  Harness h(prefetch::SchemeKind::kCamps);
  // Five accesses to distinct lines of one row: the fourth pushes the RUT
  // past the threshold; the row is copied and precharged; the fifth access
  // (arriving later) is served from the buffer.
  for (int i = 0; i < 4; ++i) {
    h.submit(0, 5, static_cast<LineId>(i), AccessType::kRead,
             static_cast<Tick>(i) * 2 * kDram);
  }
  const u64 last = h.submit(0, 5, 9, AccessType::kRead, 400 * kDram);
  h.run();
  ASSERT_TRUE(h.response_time(last));
  EXPECT_EQ(h.vault->prefetches_issued(), 1u);
  EXPECT_GE(h.vault->buffer().hits(), 1u);
  EXPECT_EQ(h.vault->demand_reads(), 4u);
}

TEST(VaultController, CampsConflictRowFetchedOnReactivation) {
  Harness h(prefetch::SchemeKind::kCamps);
  // Row 5 opens; row 9 displaces it (5 -> CT); row 5 reactivates -> fetch.
  h.submit(0, 5, 0, AccessType::kRead, 0);
  h.submit(0, 9, 0, AccessType::kRead, 100 * kDram);
  h.submit(0, 5, 1, AccessType::kRead, 200 * kDram);
  const u64 later = h.submit(0, 5, 2, AccessType::kRead, 500 * kDram);
  h.run();
  EXPECT_EQ(h.vault->prefetches_issued(), 1u);
  EXPECT_TRUE(h.vault->buffer().contains(BankRow{0, 5}));
  ASSERT_TRUE(h.response_time(later));
  EXPECT_GE(h.vault->buffer().hits(), 1u);
}

TEST(VaultController, DuplicatePrefetchActionsDropped) {
  prefetch::SchemeParams params;
  Harness h(prefetch::SchemeKind::kBase, false, params);
  // Two immediate reads to the same row: the second one's fetch decision
  // must not double-insert.
  h.submit(0, 5, 0, AccessType::kRead, 0);
  h.submit(0, 5, 1, AccessType::kRead, 0);
  h.run();
  EXPECT_EQ(h.vault->prefetches_issued(), 1u);
}

TEST(VaultController, RefreshHappensPeriodically) {
  Harness h(prefetch::SchemeKind::kNone, /*refresh=*/true);
  // Submit sparse traffic across several refresh intervals.
  const auto& t = dram::default_timing();
  std::vector<u64> ids;
  for (int i = 0; i < 30; ++i) {
    ids.push_back(h.submit((i * 3) % 16, static_cast<RowId>(i), 0,
                           AccessType::kRead,
                           static_cast<Tick>(i) * t.tREFI / 4 * kDram));
  }
  h.run();
  for (u64 id : ids) EXPECT_TRUE(h.response_time(id));
  EXPECT_TRUE(h.vault->idle());
}

TEST(VaultController, IdleVaultKeepsOneWakeEventPerTick) {
  // A vault parked at its refresh deadline re-parks there after serving
  // each request. Every re-park targets the tick whose event is already
  // queued, so the queue holds that one event instead of one per request.
  Harness h(prefetch::SchemeKind::kNone, /*refresh=*/true);
  constexpr int kRequests = 20;
  const Tick spacing = 200 * kDram;  // each lone read drains well inside
  ASSERT_LT(kRequests * spacing, dram::default_timing().tREFI * kDram)
      << "all traffic must arrive before the parked refresh deadline";
  size_t most_pending = 0;
  for (int i = 0; i < kRequests; ++i) {
    const Tick at = static_cast<Tick>(i + 1) * spacing;
    h.submit(static_cast<BankId>(i % 16), static_cast<RowId>(i), 0,
             AccessType::kRead, at);
    h.sim.run_until(at + spacing - kDram);
    ASSERT_TRUE(h.vault->idle());
    most_pending = std::max(most_pending, h.sim.queue().size());
  }
  EXPECT_LE(most_pending, 2u);
  EXPECT_EQ(h.responses.size(), static_cast<size_t>(kRequests));
}

TEST(VaultController, ArrivalWakesAVaultParkedAtItsRefreshDeadline) {
  // Both requests are handed over at tick 0; the second reaches the vault
  // off an edge, long after the first has drained and the vault has parked
  // its wake at the refresh deadline. The wake that parks it must also
  // count the arrival: the second read opens its bank at the first edge at
  // or after it and returns tRCD + tCL + tBURST later.
  Harness h(prefetch::SchemeKind::kNone, /*refresh=*/true);
  const auto& t = dram::default_timing();
  auto request = [&](BankId bank, LineId column) {
    MemRequest req;
    req.id = h.next_id++;
    req.type = AccessType::kRead;
    DecodedAddr d;
    d.bank = bank;
    d.row = 5;
    d.column = column;
    return std::pair{req, d};
  };
  const auto [first, first_addr] = request(0, 0);
  const auto [second, second_addr] = request(1, 3);
  const Tick arrival = 300 * kDram + 7;
  ASSERT_LT(arrival, t.tREFI * kDram) << "must arrive before the deadline";
  h.vault->receive(first, first_addr, 0);
  h.vault->receive(second, second_addr, arrival);
  h.sim.run_until(arrival - 1);
  ASSERT_TRUE(h.response_time(first.id).has_value());
  EXPECT_FALSE(h.response_time(second.id).has_value());
  EXPECT_TRUE(h.vault->idle()) << "a request on its way is not the vault's";
  h.run(arrival + 100 * kDram);
  const Tick edge = sim::dram_clock().next_edge(arrival);
  ASSERT_TRUE(h.response_time(second.id).has_value());
  EXPECT_EQ(*h.response_time(second.id),
            edge + (t.tRCD + t.tCL + t.tBURST) * kDram);
}

TEST(VaultController, RefreshDrainSleepsUntilTheBlockingBankCanStep) {
  // A row opened 15 cycles before tREFI holds the drain: its PRE waits for
  // ACT + tRAS, the REF for that PRE + tRP, and a read arriving during the
  // drain opens its bank only when tRFC ends. In between the vault wakes
  // at the drain's start, at the arrival and at the PRE and REF cycles;
  // with the data response of the first read that makes five
  // vault-source events.
  Harness h(prefetch::SchemeKind::kNone, /*refresh=*/true);
  const auto& t = dram::default_timing();
  const u64 act = t.tREFI - 15;
  const u64 arrive = t.tREFI + 5;
  const u64 pre = act + t.tRAS;
  const u64 ref = pre + t.tRP;
  const u64 first = h.submit(0, 5, 0, AccessType::kRead, act * kDram);
  const u64 late = h.submit(1, 7, 0, AccessType::kRead, arrive * kDram);
  ASSERT_GT(pre, arrive) << "the read must arrive while the drain waits";
  auto count = [&](energy::EnergyEvent e) { return h.energy.count(e); };
  auto vault_events = [&] {
    return h.sim.events_by_source()[static_cast<size_t>(
        sim::EventSource::kVault)];
  };

  h.sim.run_until((t.tREFI - 1) * kDram);
  EXPECT_EQ(count(energy::EnergyEvent::kActivate), 1u);
  EXPECT_EQ(count(energy::EnergyEvent::kReadLine), 1u)
      << "the first read issues before the drain";
  const u64 before_drain = vault_events();
  h.sim.run_until((pre - 1) * kDram);
  EXPECT_EQ(count(energy::EnergyEvent::kPrecharge), 0u);
  h.sim.run_until(pre * kDram);
  EXPECT_EQ(count(energy::EnergyEvent::kPrecharge), 1u) << "PRE at ACT + tRAS";
  h.sim.run_until((ref - 1) * kDram);
  EXPECT_EQ(count(energy::EnergyEvent::kRefresh), 0u);
  h.sim.run_until(ref * kDram);
  EXPECT_EQ(count(energy::EnergyEvent::kRefresh), 1u) << "REF at PRE + tRP";
  EXPECT_EQ(vault_events() - before_drain, 5u)
      << "a draining vault must sleep until its blocking bank can step";

  h.run(ref * kDram + 2 * t.tRFC * kDram);
  ASSERT_TRUE(h.response_time(first).has_value());
  EXPECT_EQ(*h.response_time(first),
            (act + t.tRCD + t.tCL + t.tBURST) * kDram);
  ASSERT_TRUE(h.response_time(late).has_value());
  EXPECT_EQ(*h.response_time(late),
            (ref + t.tRFC + t.tRCD + t.tCL + t.tBURST) * kDram);
}

TEST(VaultController, LoneWriteIssuesTrcdAfterItsActivate) {
  // With no reads queued the vault drains its lone write. The drain mode
  // must hold from the ACT to the WR instead of flipping on every wake.
  Harness h;
  h.submit(0, 5, 0, AccessType::kWrite);  // arrives on edge 0: ACT there
  const u64 trcd = dram::default_timing().tRCD;
  h.sim.run_until((trcd - 1) * kDram);
  EXPECT_EQ(h.vault->demand_writes(), 0u) << "WR cannot precede ACT + tRCD";
  h.sim.run_until(trcd * kDram);
  EXPECT_EQ(h.vault->demand_writes(), 1u) << "WR issues at ACT + tRCD";
}

TEST(VaultController, DrainBegunWhenReadsRunOutOutlastsALateRead) {
  // Nine writes wait behind a read to another row of their bank. When the
  // read issues, only writes remain and the drain begins on the next cycle.
  // A read arriving while the writes still wait for their bank must not
  // end it: more than write_drain_low writes are queued.
  Harness h;
  h.submit(0, 5, 0);
  for (LineId col = 0; col < 9; ++col) {
    h.submit(0, 9, col, AccessType::kWrite);
  }
  const u64 late = h.submit(2, 3, 0, AccessType::kRead, 15 * kDram);
  h.sim.run_while_pending([&] { return h.response_time(late).has_value(); });
  EXPECT_GE(h.vault->demand_writes(), 1u)
      << "the late read overtook a write drain above the low mark";
}

TEST(VaultController, IngressCountsOneBufferMissPerRequest) {
  // Reads held back by a full read queue are looked up in the prefetch
  // buffer again on every wake; only the first lookup is a miss.
  Harness h;
  constexpr u64 kReads = 40;  // 8 beyond the 32-entry read queue
  for (u64 i = 0; i < kReads; ++i) {
    h.submit(static_cast<BankId>(i % 16), static_cast<RowId>(i), 0);
  }
  h.run();
  EXPECT_EQ(h.responses.size(), kReads);
  EXPECT_EQ(h.vault->buffer().misses(), kReads);
}

TEST(VaultController, WakesOnlyWhenItCanAct) {
  // A lone read to a precharged bank needs four events: the receive, the
  // wake that issues ACT, the wake that issues RD tRCD later, and the
  // response. The vault must sleep through the cycles in between.
  Harness h;
  const u64 id = h.submit(0, 5, 3);
  h.run();
  ASSERT_TRUE(h.response_time(id).has_value());
  EXPECT_LE(h.sim.events_executed(), 5u);
}

TEST(VaultController, StatsResetKeepsState) {
  Harness h(prefetch::SchemeKind::kBase);
  h.submit(0, 5, 0);
  h.run();
  ASSERT_EQ(h.vault->prefetches_issued(), 1u);
  h.vault->reset_stats();
  EXPECT_EQ(h.vault->prefetches_issued(), 0u);
  EXPECT_EQ(h.vault->demand_reads(), 0u);
  EXPECT_TRUE(h.vault->buffer().contains(BankRow{0, 5}))
      << "buffer contents survive a stats reset";
}

TEST(VaultController, QueueBackpressureDoesNotLoseRequests) {
  Harness h;
  // Flood one bank-row pair far beyond the 32-entry read queue in one tick.
  std::vector<u64> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(h.submit(static_cast<BankId>(i % 2), 5,
                           static_cast<LineId>(i % 16)));
  }
  h.run();
  EXPECT_EQ(h.responses.size(), ids.size());
}

TEST(VaultController, FrFcfsServesRowHitBeforeOlderMiss) {
  Harness h;
  // Open row 5 in bank 0 and let everything settle.
  h.submit(0, 5, 0);
  // At t=1000 cycles: first an older request that misses (bank 1, cold),
  // then a younger request that hits bank 0's open row. First-ready picks
  // the hit despite its age.
  const u64 miss = h.submit(1, 7, 0, AccessType::kRead, 1000 * kDram);
  const u64 hit = h.submit(0, 5, 3, AccessType::kRead, 1000 * kDram);
  h.run();
  ASSERT_TRUE(h.response_time(miss) && h.response_time(hit));
  EXPECT_LT(*h.response_time(hit), *h.response_time(miss));
}

TEST(VaultController, TrrdSpacesActivations) {
  Harness h;
  // Two cold reads to different banks submitted together: their ACTs must
  // be spaced by at least tRRD, so the responses differ by >= tRRD.
  const u64 a = h.submit(0, 5, 0);
  const u64 b = h.submit(1, 9, 0);
  h.run();
  ASSERT_TRUE(h.response_time(a) && h.response_time(b));
  const Tick gap = *h.response_time(b) - *h.response_time(a);
  EXPECT_GE(gap, dram::default_timing().tRRD * kDram);
}

TEST(VaultController, TfawLimitsActivationBursts) {
  Harness h;
  // Five cold reads to five different banks at once: ACTs 1-4 are spaced
  // by tRRD; the fifth must additionally wait for tFAW after the first.
  std::vector<u64> ids;
  for (u32 b = 0; b < 5; ++b) ids.push_back(h.submit(b, 3, 0));
  h.run();
  const auto& t = dram::default_timing();
  // Response k (k=0..3) ~ first_resp + k*tRRD; response 4 is delayed until
  // the first ACT leaves the tFAW window.
  ASSERT_TRUE(h.response_time(ids[4]) && h.response_time(ids[0]));
  const Tick spread = *h.response_time(ids[4]) - *h.response_time(ids[0]);
  EXPECT_GE(spread, t.tFAW * kDram);
  const Tick inner = *h.response_time(ids[3]) - *h.response_time(ids[0]);
  EXPECT_LT(inner, t.tFAW * kDram) << "first four ACTs need only tRRD gaps";
}

TEST(VaultController, WriteDrainEventuallyWritesUnderReadPressure) {
  Harness h;
  // Saturate with reads while a burst of writes queues up; all writes must
  // still reach the banks (drain hysteresis) by the end.
  for (int i = 0; i < 64; ++i) {
    h.submit((i * 5) % 16, (i * 3) % 32, i % 16, AccessType::kRead,
             static_cast<Tick>(i) * kDram);
  }
  for (int i = 0; i < 30; ++i) {
    h.submit((i * 7) % 16, (i * 11) % 32, i % 16, AccessType::kWrite,
             static_cast<Tick>(i) * kDram);
  }
  h.run();
  EXPECT_EQ(h.vault->demand_writes(), 30u);
}

TEST(VaultControllerClosedPage, BankClosesAfterLoneAccess) {
  Harness h(prefetch::SchemeKind::kNone, false, {}, PagePolicy::kClosed);
  h.submit(0, 5, 0);
  // A second access to the same row long after: the bank must have been
  // precharged in between, so it classifies as empty, not a row hit.
  h.submit(0, 5, 1, AccessType::kRead, 300 * kDram);
  h.run();
  EXPECT_EQ(h.vault->row_hits(), 0u);
  EXPECT_EQ(h.vault->row_empties(), 2u);
  EXPECT_EQ(h.vault->row_conflicts(), 0u);
}

TEST(VaultControllerClosedPage, PendingRowHitsServedBeforeClose) {
  Harness h(prefetch::SchemeKind::kNone, false, {}, PagePolicy::kClosed);
  // Burst to one row arriving together: the close must not destroy the
  // queued row hits.
  std::vector<u64> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(h.submit(0, 5, static_cast<LineId>(i)));
  }
  h.run();
  for (u64 id : ids) EXPECT_TRUE(h.response_time(id));
  EXPECT_GE(h.vault->row_hits(), 5u) << "burst served from the open row";
}

TEST(VaultControllerClosedPage, RemovesConflictsOnPingPong) {
  auto conflicts_with = [](PagePolicy policy) {
    Harness h(prefetch::SchemeKind::kNone, false, {}, policy);
    for (int i = 0; i < 20; ++i) {
      h.submit(0, static_cast<RowId>(i % 2 ? 5 : 9), 0, AccessType::kRead,
               static_cast<Tick>(i) * 100 * kDram);
    }
    h.run();
    return h.vault->row_conflicts();
  };
  EXPECT_GT(conflicts_with(PagePolicy::kOpen), 15u);
  EXPECT_EQ(conflicts_with(PagePolicy::kClosed), 0u);
}

// Scheme sweep: every scheme must complete a mixed workload with all
// responses delivered (liveness).
class VaultSchemeSweep
    : public ::testing::TestWithParam<prefetch::SchemeKind> {};

TEST_P(VaultSchemeSweep, MixedTrafficCompletes) {
  Harness h(GetParam(), /*refresh=*/true);
  u64 x = 31;
  size_t reads = 0;
  for (int i = 0; i < 500; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const bool write = (x & 7) == 0;
    if (!write) ++reads;
    h.submit((x >> 9) % 16, (x >> 22) % 32, (x >> 45) % 16,
             write ? AccessType::kWrite : AccessType::kRead,
             static_cast<Tick>(i) * kDram);
  }
  h.run();
  EXPECT_EQ(h.responses.size(), reads);
  EXPECT_TRUE(h.vault->idle());
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, VaultSchemeSweep,
    ::testing::Values(prefetch::SchemeKind::kNone, prefetch::SchemeKind::kBase,
                      prefetch::SchemeKind::kBaseHit,
                      prefetch::SchemeKind::kMmd, prefetch::SchemeKind::kCamps,
                      prefetch::SchemeKind::kCampsMod));

}  // namespace
}  // namespace camps::hmc
