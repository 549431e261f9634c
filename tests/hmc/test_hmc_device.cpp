// Whole-device and host-controller behaviour.
#include <gtest/gtest.h>
#include <memory>
#include <string>

#include "hmc/host_controller.hpp"

namespace camps::hmc {
namespace {

struct DeviceHarness {
  sim::Simulator sim;
  StatRegistry stats;
  std::unique_ptr<HostController> host;

  explicit DeviceHarness(
      prefetch::SchemeKind scheme = prefetch::SchemeKind::kNone,
      HmcConfig cfg = {}) {
    cfg.vault.refresh_enabled = false;  // determinism for latency asserts
    host = std::make_unique<HostController>(sim, cfg, scheme,
                                            prefetch::SchemeParams{}, &stats);
  }
};

TEST(HostController, ReadCompletesWithCallback) {
  DeviceHarness h;
  bool done = false;
  h.host->read(0x1000, 0, [&](const MemRequest& req) {
    done = true;
    EXPECT_EQ(req.addr, 0x1000u);
  });
  h.sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(h.host->reads_completed(), 1u);
  EXPECT_TRUE(h.host->idle());
}

TEST(HostController, EndToEndLatencyIncludesLinksAndDram) {
  DeviceHarness h;
  h.host->read(0x1000, 0, nullptr);
  h.sim.run();
  // Round trip: link ser+flight (~4.7 ns) + xbar (2.5) + ACT+RD (32.5 ns)
  // + xbar + response link (~7.2 ns) => > 45 ns => > 135 CPU cycles.
  EXPECT_GT(h.host->mean_read_latency_cycles(), 135.0);
  EXPECT_LT(h.host->mean_read_latency_cycles(), 400.0);
}

TEST(HostController, WritesArePosted) {
  DeviceHarness h;
  h.host->write(0x2000, 1);
  h.sim.run();
  EXPECT_EQ(h.host->writes_issued(), 1u);
  EXPECT_EQ(h.host->reads_completed(), 0u);
  EXPECT_TRUE(h.host->idle());
}

TEST(HostController, ManyReadsAllComplete) {
  DeviceHarness h;
  int completed = 0;
  u64 x = 77;
  for (int i = 0; i < 1000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    h.host->read((x % (u64{1} << 33)) & ~u64{63}, x % 8,
                 [&](const MemRequest&) { ++completed; });
  }
  h.sim.run();
  EXPECT_EQ(completed, 1000);
  EXPECT_EQ(h.host->reads_completed(), 1000u);
  EXPECT_TRUE(h.host->idle());
}

TEST(HostController, LatencyHistogramPopulated) {
  DeviceHarness h;
  for (int i = 0; i < 50; ++i) {
    h.host->read(static_cast<Addr>(i) * 4096, 0, nullptr);
  }
  h.sim.run();
  EXPECT_EQ(h.host->latency_histogram().count(), 50u);
  EXPECT_GT(h.host->latency_histogram().mean(), 0.0);
}

TEST(HostController, ResetStatsClearsLatency) {
  DeviceHarness h;
  h.host->read(0, 0, nullptr);
  h.sim.run();
  h.host->reset_stats();
  EXPECT_EQ(h.host->reads_completed(), 0u);
  EXPECT_EQ(h.host->latency_histogram().count(), 0u);
  EXPECT_DOUBLE_EQ(h.host->mean_read_latency_cycles(), 0.0);
}

TEST(HmcDevice, LinkEventsOnlyForHostDeliveries) {
  // A request's trip to its vault is computed when it is sent, so it costs
  // no event: N reads cost N link events, one per response reaching the
  // host, and posted writes cost none.
  DeviceHarness h;
  constexpr u64 kReads = 64;
  u64 completed = 0;
  for (u64 i = 0; i < kReads; ++i) {
    h.host->read(0x1000 + 4096 * i, 0, [&](const MemRequest&) { ++completed; });
    h.host->write(0x800000 + 4096 * i, 0);
  }
  h.sim.run();
  EXPECT_EQ(completed, kReads);
  constexpr auto kLink = static_cast<size_t>(sim::EventSource::kLink);
  EXPECT_EQ(h.sim.events_by_source()[kLink], kReads);
}

TEST(HmcDevice, RequestsRouteToCorrectVault) {
  DeviceHarness h;
  const AddressMap& map = h.host->device().map();
  // Target vault 7 explicitly through the address encoding.
  DecodedAddr d;
  d.vault = 7;
  d.bank = 3;
  d.row = 11;
  d.column = 2;
  const Addr addr = map.encode(d);
  h.host->read(addr, 0, nullptr);
  h.sim.run();
  EXPECT_EQ(h.host->device().vault(7).demand_reads(), 1u);
  for (VaultId v = 0; v < h.host->device().vault_count(); ++v) {
    if (v != 7) {
      EXPECT_EQ(h.host->device().vault(v).demand_reads(), 0u);
    }
  }
}

TEST(HmcDevice, AggregatesSumOverVaults) {
  DeviceHarness h;
  const AddressMap& map = h.host->device().map();
  for (u32 v = 0; v < 8; ++v) {
    DecodedAddr d;
    d.vault = v;
    d.bank = 0;
    d.row = 1;
    d.column = 0;
    h.host->read(map.encode(d), 0, nullptr);
  }
  h.sim.run();
  const DeviceTotals t = h.host->device().totals();
  EXPECT_EQ(t.row_empties, 8u);
  EXPECT_EQ(t.row_hits + t.row_conflicts, 0u);
}

TEST(HmcDevice, EnergyAccumulatesLinkAndDramEvents) {
  DeviceHarness h;
  h.host->read(0x40, 0, nullptr);
  h.sim.run();
  const auto& e = h.host->device().energy();
  using energy::EnergyEvent;
  EXPECT_EQ(e.count(EnergyEvent::kActivate), 1u);
  EXPECT_EQ(e.count(EnergyEvent::kReadLine), 1u);
  // 1 request flit down + 5 response flits up.
  EXPECT_EQ(e.count(EnergyEvent::kLinkFlit), 6u);
}

TEST(HmcDevice, PrefetchAccuracyZeroWithoutPrefetching) {
  DeviceHarness h(prefetch::SchemeKind::kNone);
  h.host->read(0x40, 0, nullptr);
  h.sim.run();
  EXPECT_DOUBLE_EQ(h.host->device().totals().prefetch_accuracy, 0.0);
  EXPECT_EQ(h.host->device().totals().prefetches, 0u);
}

TEST(HmcDevice, BaseSchemePrefetchesAcrossVaults) {
  DeviceHarness h(prefetch::SchemeKind::kBase);
  u64 x = 5;
  for (int i = 0; i < 200; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    h.host->read((x % (u64{1} << 30)) & ~u64{63}, 0, nullptr);
  }
  h.sim.run();
  const DeviceTotals t = h.host->device().totals();
  EXPECT_GT(t.prefetches, 100u);
  EXPECT_EQ(t.row_conflicts, 0u);
}

TEST(HmcDevice, ConflictRateComputedOverAllOutcomes) {
  DeviceHarness h;
  const AddressMap& map = h.host->device().map();
  DecodedAddr d;
  d.vault = 0;
  d.bank = 0;
  d.column = 0;
  // Alternate rows 1/2 in one bank with spacing: empty, then conflicts.
  for (int i = 0; i < 10; ++i) {
    d.row = 1 + (i % 2);
    const Addr addr = map.encode(d);
    h.sim.schedule_at(static_cast<Tick>(i) * 3000,
                      [&h, addr] { h.host->read(addr, 0, nullptr); });
  }
  h.sim.run();
  const double rate = h.host->device().totals().row_conflict_rate();
  EXPECT_GT(rate, 0.5);
  EXPECT_LE(rate, 1.0);
}

TEST(HmcDevice, FewerLinksStillDeliver) {
  HmcConfig cfg;
  cfg.num_links = 1;
  DeviceHarness h(prefetch::SchemeKind::kNone, cfg);
  int completed = 0;
  for (int i = 0; i < 100; ++i) {
    h.host->read(static_cast<Addr>(i) * 64, 0,
                 [&](const MemRequest&) { ++completed; });
  }
  h.sim.run();
  EXPECT_EQ(completed, 100);
}

TEST(HmcDevice, StatRegistryExposesVaultCounters) {
  DeviceHarness h;
  h.host->read(0x40, 0, nullptr);
  h.sim.run();
  u64 empties = 0;
  for (u32 v = 0; v < h.host->device().vault_count(); ++v) {
    empties += h.stats.counter_value("vault" + std::to_string(v) + ".rb_empty");
  }
  EXPECT_EQ(empties, 1u);
}

}  // namespace
}  // namespace camps::hmc
