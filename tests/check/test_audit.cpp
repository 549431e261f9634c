// Audit subsystem tests: the reporter/scope machinery, clean audits of
// healthy components, and — the important half — corruption injection:
// damage a component's private state through the TestCorruptor back door
// and assert the audit *reports* the violation. A checker that cannot see
// planted corruption would silently pass the periodic --audit-every runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "cache/hierarchy.hpp"
#include "cache/mshr.hpp"
#include "check/audit.hpp"
#include "common/rng.hpp"
#include "cpu/core.hpp"
#include "dram/bank.hpp"
#include "energy/energy_model.hpp"
#include "hmc/hmc_device.hpp"
#include "hmc/vault_controller.hpp"
#include "prefetch/conflict_table.hpp"
#include "prefetch/factory.hpp"
#include "prefetch/prefetch_buffer.hpp"
#include "prefetch/replacement.hpp"
#include "prefetch/rut.hpp"
#include "prefetch/scheme_camps.hpp"
#include "sim/event_queue.hpp"
#include "system/system.hpp"

namespace camps::check {

// The test-only back door the model classes befriend. Each hook plants one
// specific inconsistency that a correct audit must flag.
struct TestCorruptor {
  static void duplicate_ct_entry(prefetch::ConflictTable& ct) {
    ct.lru_.push_back(ct.lru_.front());
  }
  static void overflow_ct(prefetch::ConflictTable& ct) {
    for (u32 i = 0; i <= ct.capacity_; ++i) {
      ct.lru_.push_back(BankRow{15, 40'000 + i});
    }
  }
  static void duplicate_recency(prefetch::PrefetchBuffer& buffer) {
    buffer.mru_order_.push_back(buffer.mru_order_.front());
  }
  static void skew_utilization(prefetch::PrefetchBuffer& buffer) {
    for (auto& entry : buffer.slots_) {
      if (entry.valid) {
        entry.utilization += 7;
        return;
      }
    }
  }
  static void scramble_bank_state(dram::Bank& bank) {
    bank.raw_state_ = static_cast<dram::BankState>(250);
  }
  static void unbalance_bank_counters(dram::Bank& bank) { ++bank.n_pre_; }
  static void delay_heap_root(sim::EventQueue& queue) {
    queue.heap_.front().when += Tick{1} << 40;
  }
  static void misplace_heap_index(sim::EventQueue& queue) {
    std::swap(queue.meta_[queue.heap_[1].slot].heap_index,
              queue.meta_[queue.heap_[2].slot].heap_index);
  }
  static void rewind_generation(sim::EventQueue& queue, u32 slot) {
    --queue.meta_[slot].generation;
  }
  static void drop_vault_wake(hmc::VaultController& vault) {
    vault.wake_ = sim::EventHandle{};
  }
  static void postpone_vault_wake(sim::Simulator& sim,
                                  hmc::VaultController& vault, Tick when) {
    sim.cancel(vault.wake_);
    vault.wake_ = sim.schedule_late_at(when, sim::late_unit::vault(vault.id_),
                                       [&vault] { vault.wake(); });
  }
  static bool refresh_draining(const hmc::VaultController& vault) {
    return vault.refresh_draining_;
  }
  static bool draining_writes(const hmc::VaultController& vault) {
    return vault.draining_writes_;
  }
  /// Arms `vault`'s wake at the current tick (a DRAM edge): called from an
  /// ordinary event on every edge, it wakes the vault every cycle.
  static void wake_now(hmc::VaultController& vault) {
    vault.schedule_wake_at_cycle(vault.cycle_of(vault.sim_.now()));
  }
  /// Makes the first refresh drain to begin in `device` postpone its
  /// vault's wake by `delay`, just before the drain-start hook runs.
  static void postpone_first_drain_wake(sim::Simulator& sim,
                                        hmc::HmcDevice& device, Tick delay) {
    auto armed = std::make_shared<bool>(true);
    for (auto& vault : device.vaults_) {
      hmc::VaultController& v = *vault;
      auto audit = std::move(v.drain_hook_);
      v.drain_hook_ = [=, &sim, &v](const hmc::VaultController& self) {
        if (*armed) {
          *armed = false;
          postpone_vault_wake(sim, v, sim.queue().time_of(v.wake_) + delay);
        }
        if (audit) audit(self);
      };
    }
  }
  /// Copies the key of way 0 of `set` into way 1.
  static void duplicate_cache_key(cache::Cache& cache, u64 set) {
    const size_t first = cache.first_way(set);
    cache.keys_[first + 1] = cache.keys_[first];
  }
  /// Stamps way 1 of `set` one past its set's LRU clock.
  static void stamp_past_clock(cache::Cache& cache, u64 set) {
    cache.stamps_[cache.first_way(set) + 1] = cache.lru_clock_[set] + 1;
  }
  static cache::Cache& l3(cache::CacheHierarchy& caches) { return caches.l3_; }
  static void cross_rut_ct(prefetch::CampsScheme& scheme, BankId bank,
                           RowId row) {
    scheme.ct_.insert(BankRow{bank, row});
  }
  static bool stalled_on_a_hit(const cpu::Core& core) {
    return core.stalled_ && core.resume_at_ != kTickNever;
  }
  static void drop_core_step(sim::Simulator& sim, cpu::Core& core) {
    sim.cancel(core.step_);
  }
  static bool ran_ahead(const cpu::Core& core) { return !core.ahead_.empty(); }
  static void plant_pending_fill(cache::CacheHierarchy& caches, CoreId core,
                                 Addr addr) {
    ++caches.pending_fills_[caches.fill_slot(core, addr)];
  }
};

namespace {

// Table I's vault shape, as HmcGeometry's defaults give it.
constexpr u32 kBanks = 16;
constexpr u32 kLinesPerRow = 16;

bool reports(const AuditReporter& rep, const std::string& invariant) {
  const auto& v = rep.violations();
  return std::any_of(v.begin(), v.end(), [&](const Violation& x) {
    return x.invariant == invariant;
  });
}

TEST(AuditReporter, ScopesNestIntoDottedComponentNames) {
  AuditReporter rep;
  rep.set_tick(42);
  {
    const AuditScope outer(rep, "vault3");
    {
      const AuditScope inner(rep, "bank7");
      rep.violation("test-rule", "something broke");
    }
    EXPECT_EQ(rep.component(), "vault3");
  }
  ASSERT_EQ(rep.violations().size(), 1u);
  EXPECT_EQ(rep.violations()[0].component, "vault3.bank7");
  EXPECT_EQ(rep.violations()[0].invariant, "test-rule");
  EXPECT_EQ(rep.violations()[0].tick, 42u);
  EXPECT_NE(rep.report().find("vault3.bank7"), std::string::npos);
  EXPECT_NE(rep.report().find("test-rule"), std::string::npos);
}

TEST(AuditReporter, ExpectCountsChecksAndRecordsOnlyFailures) {
  AuditReporter rep;
  EXPECT_TRUE(rep.expect(true, "holds", "fine"));
  EXPECT_FALSE(rep.expect(false, "broken", "not fine"));
  EXPECT_EQ(rep.checks_run(), 2u);
  ASSERT_EQ(rep.violations().size(), 1u);
  EXPECT_EQ(rep.violations()[0].invariant, "broken");
  EXPECT_FALSE(rep.clean());
}

TEST(AuditFail, AbortsThroughTheAssertPath) {
  AuditReporter rep;
  rep.violation("planted", "deliberate for the death test");
  EXPECT_DEATH(audit_fail(rep), "model audit");
}

// --- clean components must audit clean ---------------------------------

TEST(CleanAudit, EventQueueAfterMixedTraffic) {
  sim::EventQueue q;
  int fired = 0;
  for (int i = 0; i < 16; ++i) q.schedule(100 - i, [&fired] { ++fired; });
  for (int i = 0; i < 5; ++i) q.pop().second();
  AuditReporter rep;
  q.audit(rep);
  EXPECT_TRUE(rep.clean()) << rep.report();
  EXPECT_GT(rep.checks_run(), 0u);
}

TEST(CleanAudit, EventQueueAfterCancellations) {
  sim::EventQueue q;
  std::vector<sim::EventHandle> handles;
  for (int i = 0; i < 32; ++i) {
    handles.push_back(q.schedule(static_cast<Tick>((i * 7) % 19), [] {}));
  }
  for (int i = 0; i < 32; i += 3) q.cancel(handles[i]);
  for (int i = 0; i < 4; ++i) q.pop();
  for (int i = 0; i < 6; ++i) q.schedule(40 + i, [] {});
  AuditReporter rep;
  q.audit(rep);
  EXPECT_TRUE(rep.clean()) << rep.report();
}

TEST(CleanAudit, BankThroughLegalCommandSequence) {
  const dram::TimingParams t = dram::default_timing();
  dram::Bank bank(t);
  auto audit_clean = [&bank](const char* when) {
    AuditReporter rep;
    bank.audit(rep);
    EXPECT_TRUE(rep.clean()) << when << ":\n" << rep.report();
  };
  audit_clean("fresh");
  u64 cycle = bank.earliest_activate(0);
  bank.activate(cycle, 17);
  audit_clean("after ACT");
  cycle = bank.earliest_column(cycle);
  bank.read(cycle);
  audit_clean("after RD");
  cycle = bank.earliest_precharge(cycle);
  bank.precharge(cycle);
  audit_clean("after PRE");
}

TEST(CleanAudit, CampsTablesAfterSchemeTraffic) {
  prefetch::CampsScheme scheme(kBanks);
  prefetch::AccessContext ctx;
  for (u32 i = 0; i < 200; ++i) {
    ctx.bank = i % 16;
    ctx.row = (i * 7) % 64;
    ctx.outcome = (i % 3 == 0) ? dram::RowBufferOutcome::kHit
                               : dram::RowBufferOutcome::kConflict;
    scheme.on_demand_access(ctx);
  }
  AuditReporter rep;
  scheme.audit(rep);
  EXPECT_TRUE(rep.clean()) << rep.report();
  EXPECT_GT(rep.checks_run(), 0u);
}

TEST(CleanAudit, PrefetchBufferAndMshr) {
  prefetch::PrefetchBuffer buffer({.entries = 4}, kLinesPerRow,
                                  prefetch::make_lru());
  for (u32 r = 0; r < 6; ++r) buffer.insert(BankRow{0, r});
  buffer.access(BankRow{0, 4}, 3, AccessType::kRead);
  cache::MshrFile mshrs;
  mshrs.allocate(0x1000, [] {});
  mshrs.allocate(0x1000, [] {});
  AuditReporter rep;
  buffer.audit(rep);
  mshrs.audit(rep);
  EXPECT_TRUE(rep.clean()) << rep.report();
}

// --- corruption injection: the audit must see planted damage ------------

TEST(CorruptionAudit, ConflictTableLruDuplicate) {
  prefetch::ConflictTable ct(8);
  ct.insert(BankRow{2, 30});
  ct.insert(BankRow{3, 31});
  TestCorruptor::duplicate_ct_entry(ct);
  AuditReporter rep;
  ct.audit(rep);
  EXPECT_TRUE(reports(rep, "ct-duplicate")) << rep.report();
}

TEST(CorruptionAudit, ConflictTableOverflow) {
  prefetch::ConflictTable ct(8);
  TestCorruptor::overflow_ct(ct);
  AuditReporter rep;
  ct.audit(rep);
  EXPECT_TRUE(reports(rep, "ct-capacity")) << rep.report();
}

TEST(CorruptionAudit, RecencyStackNotAPermutation) {
  prefetch::PrefetchBuffer buffer({.entries = 8}, kLinesPerRow,
                                  prefetch::make_lru());
  buffer.insert(BankRow{1, 10});
  buffer.insert(BankRow{1, 11});
  TestCorruptor::duplicate_recency(buffer);
  AuditReporter rep;
  buffer.audit(rep);
  EXPECT_TRUE(reports(rep, "recency-permutation")) << rep.report();
}

TEST(CorruptionAudit, UtilizationCounterDriftsFromBitmap) {
  prefetch::PrefetchBuffer buffer({.entries = 8}, kLinesPerRow,
                                  prefetch::make_lru());
  buffer.insert(BankRow{1, 10});
  buffer.access(BankRow{1, 10}, 5, AccessType::kRead);
  TestCorruptor::skew_utilization(buffer);
  AuditReporter rep;
  buffer.audit(rep);
  EXPECT_TRUE(reports(rep, "utilization-popcount")) << rep.report();
}

TEST(CorruptionAudit, BankFsmStateOutOfRange) {
  const dram::TimingParams t = dram::default_timing();
  dram::Bank bank(t);
  TestCorruptor::scramble_bank_state(bank);
  AuditReporter rep;
  bank.audit(rep);
  EXPECT_TRUE(reports(rep, "fsm-state")) << rep.report();
}

TEST(CorruptionAudit, BankPrechargeWithoutActivate) {
  const dram::TimingParams t = dram::default_timing();
  dram::Bank bank(t);
  bank.activate(bank.earliest_activate(0), 3);
  TestCorruptor::unbalance_bank_counters(bank);
  AuditReporter rep;
  bank.audit(rep);
  EXPECT_TRUE(reports(rep, "act-pre-balance")) << rep.report();
}

TEST(CorruptionAudit, EventQueueHeapOrderBroken) {
  sim::EventQueue q;
  for (int i = 0; i < 8; ++i) q.schedule(10 + i, [] {});
  TestCorruptor::delay_heap_root(q);
  AuditReporter rep;
  q.audit(rep);
  EXPECT_TRUE(reports(rep, "heap-order")) << rep.report();
}

TEST(CorruptionAudit, EventQueuePositionTableCorrupted) {
  sim::EventQueue q;
  for (int i = 0; i < 8; ++i) q.schedule(10 + i, [] {});
  TestCorruptor::misplace_heap_index(q);
  AuditReporter rep;
  q.audit(rep);
  EXPECT_TRUE(reports(rep, "index-mismatch")) << rep.report();
}

TEST(CorruptionAudit, EventQueueGenerationNotAdvanced) {
  sim::EventQueue q;
  const sim::EventHandle h = q.schedule(10, [] {});
  q.schedule(20, [] {});
  q.cancel(h);
  TestCorruptor::rewind_generation(q, h.slot);
  AuditReporter rep;
  q.audit(rep);
  EXPECT_TRUE(reports(rep, "generation-count")) << rep.report();
}

TEST(CorruptionAudit, VaultWithWorkLostItsWake) {
  sim::Simulator sim;
  StatRegistry stats;
  auto scheme = prefetch::make_scheme(prefetch::SchemeKind::kNone, kBanks);
  auto respond = [](const hmc::MemRequest&, Tick) {};
  hmc::VaultController vault(sim, 0, hmc::HmcGeometry{}, hmc::VaultConfig{},
                             std::move(scheme), nullptr, stats, respond);
  hmc::DecodedAddr addr;
  addr.bank = 3;
  addr.row = 12;
  hmc::MemRequest req;
  req.id = 1;
  vault.receive(req, addr, 0);
  {
    AuditReporter rep;
    vault.audit(rep);
    EXPECT_TRUE(rep.clean()) << rep.report();
  }
  TestCorruptor::drop_vault_wake(vault);
  AuditReporter rep;
  vault.audit(rep);
  EXPECT_TRUE(reports(rep, "vault-wake-pending")) << rep.report();
}

TEST(CorruptionAudit, VaultWakeMissesAnArrival) {
  // A request still on its way needs a wake by the first DRAM edge at or
  // after its arrival; a wake parked past it would leave it waiting.
  sim::Simulator sim;
  StatRegistry stats;
  auto scheme = prefetch::make_scheme(prefetch::SchemeKind::kNone, kBanks);
  auto respond = [](const hmc::MemRequest&, Tick) {};
  hmc::VaultController vault(sim, 0, hmc::HmcGeometry{}, hmc::VaultConfig{},
                             std::move(scheme), nullptr, stats, respond);
  hmc::DecodedAddr addr;
  addr.bank = 3;
  addr.row = 12;
  hmc::MemRequest req;
  req.id = 1;
  const Tick arrival = 10 * sim::kDramTicksPerCycle + 7;
  vault.receive(req, addr, arrival);
  {
    AuditReporter rep;
    vault.audit(rep);
    EXPECT_TRUE(rep.clean()) << rep.report();
  }
  TestCorruptor::postpone_vault_wake(sim, vault, 100 * sim::kDramTicksPerCycle);
  AuditReporter rep;
  vault.audit(rep);
  EXPECT_TRUE(reports(rep, "vault-wake-pending")) << rep.report();
}

TEST(CorruptionAudit, DrainingVaultSleepsPastItsBlockingBank) {
  // A row opened 15 cycles before tREFI holds the refresh drain until its
  // PRE gate, ACT + tRAS. A wake parked one cycle past that gate would hold
  // the refresh, and every demand behind it, back.
  sim::Simulator sim;
  StatRegistry stats;
  auto scheme = prefetch::make_scheme(prefetch::SchemeKind::kNone, kBanks);
  auto respond = [](const hmc::MemRequest&, Tick) {};
  hmc::VaultConfig cfg;
  cfg.refresh_enabled = true;
  hmc::VaultController vault(sim, 0, hmc::HmcGeometry{}, cfg, std::move(scheme),
                             nullptr, stats, respond);
  const auto& t = cfg.timing;
  hmc::DecodedAddr addr;
  addr.bank = 3;
  addr.row = 12;
  hmc::MemRequest req;
  req.id = 1;
  const u64 act = t.tREFI - 15;
  vault.receive(req, addr, act * sim::kDramTicksPerCycle);
  sim.run_until(t.tREFI * sim::kDramTicksPerCycle);
  ASSERT_TRUE(TestCorruptor::refresh_draining(vault));
  {
    AuditReporter rep;
    vault.audit(rep);
    EXPECT_TRUE(rep.clean()) << rep.report();
  }
  TestCorruptor::postpone_vault_wake(
      sim, vault, (act + t.tRAS + 1) * sim::kDramTicksPerCycle);
  AuditReporter rep;
  vault.audit(rep);
  EXPECT_TRUE(reports(rep, "vault-wake-pending")) << rep.report();
}

/// Memory that answers every read after 200 cycles.
class SlowMemory final : public cache::MemoryPort {
 public:
  explicit SlowMemory(sim::Simulator& sim) : sim_(sim) {}
  void mem_read(Addr, CoreId, std::function<void()> done) override {
    sim_.schedule(200 * sim::kCpuTicksPerCycle, std::move(done));
  }
  void mem_write(Addr, CoreId) override {}

 private:
  sim::Simulator& sim_;
};

TEST(CorruptionAudit, StalledCoreLostItsStep) {
  // A one-load window over warm lines: the core plans a stall on an
  // in-flight hit, and its step must wait at the issue tick after that hit.
  sim::Simulator sim;
  SlowMemory memory(sim);
  cache::HierarchyConfig caches_cfg;
  caches_cfg.l1 = cache::CacheConfig{1024, 2, 64, 2};
  caches_cfg.l2 = cache::CacheConfig{4096, 4, 64, 6};
  caches_cfg.l3 = cache::CacheConfig{16384, 4, 64, 20};
  cache::CacheHierarchy caches(sim, caches_cfg, 1, &memory);
  caches.read(0, 0x100000, nullptr);
  sim.run();
  const trace::TraceRecord load{0, 0x100000, AccessType::kRead};
  trace::VectorTraceSource trace(std::vector<trace::TraceRecord>(20, load));
  cpu::CoreConfig cfg;
  cfg.max_outstanding_loads = 1;
  cpu::Core core(sim, 0, cfg, &trace, &caches, nullptr, nullptr);
  core.start();
  for (int i = 0; i < 100 && !TestCorruptor::stalled_on_a_hit(core); ++i) {
    sim.step();
  }
  ASSERT_TRUE(TestCorruptor::stalled_on_a_hit(core));
  {
    AuditReporter rep;
    core.audit(rep);
    EXPECT_TRUE(rep.clean()) << rep.report();
    EXPECT_GT(rep.checks_run(), 0u);
  }
  TestCorruptor::drop_core_step(sim, core);
  AuditReporter rep;
  core.audit(rep);
  EXPECT_TRUE(reports(rep, "core-stall-step")) << rep.report();
}

TEST(CorruptionAudit, RecordRanAheadIntoASetWithAPendingFill) {
  // A trace of hits on one warm line runs ahead in a single chain; a fill
  // planted on that line's L1 set afterwards breaks the rule that let it.
  sim::Simulator sim;
  SlowMemory memory(sim);
  cache::HierarchyConfig caches_cfg;
  caches_cfg.l1 = cache::CacheConfig{1024, 2, 64, 2};
  caches_cfg.l2 = cache::CacheConfig{4096, 4, 64, 6};
  caches_cfg.l3 = cache::CacheConfig{16384, 4, 64, 20};
  cache::CacheHierarchy caches(sim, caches_cfg, 1, &memory);
  caches.read(0, 0x100000, nullptr);
  sim.run();
  const trace::TraceRecord load{3, 0x100000, AccessType::kRead};
  trace::VectorTraceSource trace(std::vector<trace::TraceRecord>(20, load));
  cpu::Core core(sim, 0, cpu::CoreConfig{}, &trace, &caches, nullptr, nullptr);
  core.start();
  sim.step();
  ASSERT_TRUE(TestCorruptor::ran_ahead(core));
  {
    AuditReporter rep;
    core.audit(rep);
    EXPECT_TRUE(rep.clean()) << rep.report();
  }
  TestCorruptor::plant_pending_fill(caches, 0, 0x100000);
  AuditReporter rep;
  core.audit(rep);
  EXPECT_TRUE(reports(rep, "core-ahead-fill")) << rep.report();
}

TEST(CorruptionAudit, L2HitRanAheadIntoASetWithAPendingFill) {
  // Three warm lines share L1 set 0 (2-way), so a trace cycling over them
  // misses the L1 and hits the L2 on every record; the records run ahead
  // in one chain. A fill planted on that set breaks the rule that let them.
  sim::Simulator sim;
  SlowMemory memory(sim);
  cache::HierarchyConfig caches_cfg;
  caches_cfg.l1 = cache::CacheConfig{1024, 2, 64, 2};
  caches_cfg.l2 = cache::CacheConfig{4096, 4, 64, 6};
  caches_cfg.l3 = cache::CacheConfig{16384, 4, 64, 20};
  cache::CacheHierarchy caches(sim, caches_cfg, 1, &memory);
  const Addr lines[3] = {0x100000, 0x100200, 0x100400};
  for (const Addr line : lines) caches.read(0, line, nullptr);
  sim.run();
  std::vector<trace::TraceRecord> records;
  for (u32 i = 0; i < 20; ++i) {
    records.push_back({7, lines[i % 3], AccessType::kRead});
  }
  trace::VectorTraceSource trace(records);
  cpu::Core core(sim, 0, cpu::CoreConfig{}, &trace, &caches, nullptr, nullptr);
  const u64 l2_hits = caches.l2(0).hits();
  core.start();
  sim.step();
  ASSERT_TRUE(TestCorruptor::ran_ahead(core));
  ASSERT_GT(caches.l2(0).hits(), l2_hits) << "the chain holds L2 hits";
  {
    AuditReporter rep;
    core.audit(rep);
    EXPECT_TRUE(rep.clean()) << rep.report();
  }
  TestCorruptor::plant_pending_fill(caches, 0, lines[0]);
  AuditReporter rep;
  core.audit(rep);
  EXPECT_TRUE(reports(rep, "core-ahead-fill")) << rep.report();
}

TEST(CorruptionAudit, CacheTagValidInTwoWays) {
  // Planted in the L3 of a hierarchy, so the hierarchy's audit must reach
  // its tag store.
  sim::Simulator sim;
  SlowMemory memory(sim);
  cache::HierarchyConfig caches_cfg;
  caches_cfg.l1 = cache::CacheConfig{1024, 2, 64, 2};
  caches_cfg.l2 = cache::CacheConfig{4096, 4, 64, 6};
  caches_cfg.l3 = cache::CacheConfig{16384, 4, 64, 20};
  cache::CacheHierarchy caches(sim, caches_cfg, 1, &memory);
  caches.read(0, 0x100000, nullptr);
  caches.read(0, 0x101000, nullptr);  // same L3 set, 64 sets apart
  sim.run();
  {
    AuditReporter rep;
    caches.audit(rep);
    EXPECT_TRUE(rep.clean()) << rep.report();
  }
  const u64 set = caches.l3().set_index(0x100000);
  TestCorruptor::duplicate_cache_key(TestCorruptor::l3(caches), set);
  AuditReporter rep;
  caches.audit(rep);
  ASSERT_TRUE(reports(rep, "cache-tag-duplicate")) << rep.report();
  EXPECT_EQ(rep.violations()[0].component, "cache.l3");
}

TEST(CorruptionAudit, CacheStampPastItsSetClock) {
  cache::Cache c(cache::CacheConfig{1024, 2, 64, 2});  // 8 sets x 2 ways
  c.fill(0x40, false);
  c.fill(0x240, true);  // set 1's second way
  {
    AuditReporter rep;
    c.audit(rep);
    EXPECT_TRUE(rep.clean()) << rep.report();
    EXPECT_GT(rep.checks_run(), 0u);
  }
  TestCorruptor::stamp_past_clock(c, 1);
  AuditReporter rep;
  c.audit(rep);
  EXPECT_TRUE(reports(rep, "cache-lru-stamp")) << rep.report();
}

TEST(CorruptionAudit, RowProfiledInRutAndArchivedInCt) {
  prefetch::CampsScheme scheme(kBanks);
  prefetch::AccessContext ctx;
  ctx.bank = 4;
  ctx.row = 99;
  ctx.outcome = dram::RowBufferOutcome::kEmpty;
  scheme.on_demand_access(ctx);  // installs (4, 99) in the RUT
  TestCorruptor::cross_rut_ct(scheme, 4, 99);
  AuditReporter rep;
  scheme.audit(rep);
  EXPECT_TRUE(reports(rep, "rut-ct-exclusive")) << rep.report();
}

// --- sleep vs poll: a sleeping vault acts as one woken every cycle -------

/// What one vault run leaves behind for the comparison.
struct VaultRun {
  std::map<u64, Tick> responses;  ///< Request id -> ready tick.
  u64 reads = 0;
  u64 buffer_hits = 0;
  u64 buffer_misses = 0;
  std::array<u64, energy::kEnergyEventCount> commands{};
  bool drained_writes = false;  ///< Seen only when polling.
};

/// Feeds one vault seeded traffic: bursts of 150 back-to-back requests,
/// which fill the write queue past write_drain_high, alternate with sparse
/// stretches the vault sleeps through between arrivals. A third of the
/// requests are writes, and half continue the previous row's stream. With
/// `poll`, an ordinary event on every DRAM edge arms the vault's wake at
/// that edge, so it wakes every cycle instead of sleeping until
/// next_action_cycle().
VaultRun run_vault(prefetch::SchemeKind kind, hmc::PagePolicy policy,
                   bool poll) {
  constexpr Tick kDram = sim::kDramTicksPerCycle;
  constexpr u64 kRequests = 6'000;
  constexpr Tick kLinkTicks = 37;  // send -> arrival, off the DRAM edges
  sim::Simulator sim;
  StatRegistry stats;
  energy::EnergyModel energy;
  VaultRun out;
  hmc::VaultConfig cfg;
  cfg.refresh_enabled = true;
  cfg.page_policy = policy;
  auto respond = [&out](const hmc::MemRequest& req, Tick ready) {
    EXPECT_TRUE(out.responses.emplace(req.id, ready).second);
  };
  auto scheme = prefetch::make_scheme(kind, kBanks);
  hmc::VaultController vault(sim, 0, hmc::HmcGeometry{}, cfg,
                             std::move(scheme), &energy, stats, respond);

  Rng rng(0xC0FFEE);
  Tick send = 0;
  hmc::DecodedAddr addr;
  for (u64 id = 1; id <= kRequests; ++id) {
    if ((id / 150) % 2 == 0) {
      send += rng.next_below(2 * kDram);
    } else {
      send += rng.next_range(2 * kDram, 40 * kDram);
    }
    hmc::MemRequest req;
    req.id = id;
    req.type = rng.next_bool(0.35) ? AccessType::kWrite : AccessType::kRead;
    if (req.type == AccessType::kRead) ++out.reads;
    if (rng.next_bool(0.5)) {
      addr.column = (addr.column + 1) % kLinesPerRow;
    } else {
      addr.bank = static_cast<BankId>(rng.next_below(kBanks));
      addr.row = static_cast<RowId>(rng.next_below(6));
      addr.column = static_cast<LineId>(rng.next_below(kLinesPerRow));
    }
    sim.schedule_at(send, [&vault, &sim, req, addr] {
      vault.receive(req, addr, sim.now() + kLinkTicks);
    });
  }
  const Tick horizon = send + 40'000 * kDram;
  std::function<void()> poll_edge = [&] {
    TestCorruptor::wake_now(vault);
    out.drained_writes |= TestCorruptor::draining_writes(vault);
    if (sim.now() < horizon) {
      sim.schedule(kDram, [&poll_edge] { poll_edge(); });
    }
  };
  if (poll) sim.schedule_at(0, [&poll_edge] { poll_edge(); });
  sim.run_until(horizon);
  EXPECT_TRUE(vault.idle()) << "the traffic did not drain by the horizon";

  out.buffer_hits = vault.buffer().hits();
  out.buffer_misses = vault.buffer().misses();
  for (size_t e = 0; e < energy::kEnergyEventCount; ++e) {
    out.commands[e] = energy.count(static_cast<energy::EnergyEvent>(e));
  }
  return out;
}

TEST(WakeOracle, SleepingVaultMatchesAVaultWokenEveryCycle) {
  // The wake schedule rests on each phase's plan: every cycle before
  // next_action_cycle() is a no-op wake. Waking every cycle must therefore
  // change nothing the vault does, under every scheme and page policy.
  using hmc::PagePolicy;
  auto kinds = prefetch::paper_schemes();
  kinds.push_back(prefetch::SchemeKind::kNone);
  kinds.push_back(prefetch::SchemeKind::kStream);
  const size_t refresh = static_cast<size_t>(energy::EnergyEvent::kRefresh);
  for (const PagePolicy policy : {PagePolicy::kOpen, PagePolicy::kClosed}) {
    SCOPED_TRACE(policy == PagePolicy::kOpen ? "open page" : "closed page");
    for (const prefetch::SchemeKind kind : kinds) {
      SCOPED_TRACE(prefetch::to_string(kind));
      const VaultRun slept = run_vault(kind, policy, /*poll=*/false);
      const VaultRun polled = run_vault(kind, policy, /*poll=*/true);
      EXPECT_TRUE(polled.drained_writes) << "no write drain was exercised";
      EXPECT_GT(slept.commands[refresh], 1u) << "too few refreshes";
      EXPECT_EQ(slept.responses.size(), slept.reads);
      EXPECT_EQ(slept.responses, polled.responses);
      EXPECT_EQ(slept.buffer_hits, polled.buffer_hits);
      EXPECT_EQ(slept.buffer_misses, polled.buffer_misses);
      EXPECT_EQ(slept.commands, polled.commands);
    }
  }
}

// --- end-to-end: a real run under --audit-every stays clean -------------

TEST(SystemAudit, PeriodicAuditsRunCleanOverAWorkload) {
  system::SystemConfig cfg =
      system::table1_config(prefetch::SchemeKind::kCampsMod);
  cfg.core.warmup_instructions = 2'000;
  cfg.core.measure_instructions = 6'000;
  cfg.audit_every = 500;  // run() aborts on any violation
  auto sys = system::make_workload_system(cfg, "MX1");
  const auto results = sys->run();
  EXPECT_FALSE(results.partial);

  AuditReporter rep;
  sys->audit(rep);
  EXPECT_TRUE(rep.clean()) << rep.report();
  // The whole tree reported in: event queue, caches, and all 32 vaults.
  EXPECT_GT(rep.checks_run(), 1000u);
}

system::SystemConfig drain_audit_config(u64 audit_every) {
  system::SystemConfig cfg =
      system::table1_config(prefetch::SchemeKind::kCampsMod);
  cfg.core.warmup_instructions = 2'000;
  cfg.core.measure_instructions = 20'000;
  cfg.audit_every = audit_every;
  return cfg;
}

TEST(SystemAudit, DrainStartAuditCatchesAWakePastTheBlockingBank) {
  // The periodic audit never fires in a run this short, and the postponed
  // wake has long fired by the closing audit: only the audit at the start
  // of the drain sees that the vault would sleep past its blocking bank.
  const Tick delay = 100 * sim::kDramTicksPerCycle;
  {
    auto sys = system::make_workload_system(drain_audit_config(0), "HM1");
    TestCorruptor::postpone_first_drain_wake(sys->simulator(),
                                             sys->memory().device(), delay);
    EXPECT_FALSE(sys->run().partial) << "without audits the run completes";
  }
  const u64 never = u64{1} << 40;  // far past the run's event count
  auto sys = system::make_workload_system(drain_audit_config(never), "HM1");
  TestCorruptor::postpone_first_drain_wake(sys->simulator(),
                                           sys->memory().device(), delay);
  EXPECT_DEATH(sys->run(), "vault-wake-pending");
}

}  // namespace
}  // namespace camps::check
