// Extending the library: implement a custom memory-side prefetch scheme
// against the public PrefetchScheme interface and race it against the
// built-in schemes on a streaming workload.
//
// The example scheme is a simple "open-row eager copier": any row that
// takes a second hit in the row buffer is copied to the prefetch buffer
// (a lighter trigger than CAMPS's threshold of 4, with no conflict table).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "exp/table.hpp"
#include "system/system.hpp"

namespace {

using namespace camps;

class EagerCopyScheme final : public prefetch::PrefetchScheme {
 public:
  explicit EagerCopyScheme(u32 banks) : hits_(banks, Tracker{}) {}

  prefetch::PrefetchDecision on_demand_access(
      const prefetch::AccessContext& ctx) override {
    Tracker& t = hits_[ctx.bank];
    if (ctx.outcome != dram::RowBufferOutcome::kHit) {
      t = Tracker{ctx.row, 0};
      return {};
    }
    if (t.row != ctx.row) t = Tracker{ctx.row, 0};
    if (++t.hits == 2) {
      prefetch::PrefetchDecision d;
      d.fetch_row = true;  // copy, keep the row open (open-page policy)
      return d;
    }
    return {};
  }

  std::string name() const override { return "EAGER-COPY"; }

 private:
  struct Tracker {
    RowId row = 0;
    u32 hits = 0;
  };
  std::vector<Tracker> hits_;
};

system::RunResults run_with(const std::string& workload,
                            prefetch::SchemeKind kind) {
  system::SystemConfig cfg = system::table1_config(kind);
  cfg.core.warmup_instructions = 50000;
  cfg.core.measure_instructions = 250000;
  return system::make_workload_system(cfg, workload)->run();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string workload = argc > 1 ? argv[1] : "MX3";

  // The System API wires one scheme instance per vault via SchemeKind; for
  // a custom scheme we drive the vault layer directly through a System
  // built from the same workload but swap the comparison at the results
  // level: we reuse the NONE substrate and measure the custom scheme by
  // running the HMC in isolation. The simplest full-system route for
  // custom schemes today is to register them in prefetch::make_scheme;
  // here we demonstrate the interface contract itself on a vault harness.
  sim::Simulator sim;
  const hmc::HmcGeometry geometry;
  StatRegistry stats;
  u64 responses = 0;
  hmc::VaultController vault(
      sim, 0, geometry, hmc::VaultConfig{},
      std::make_unique<EagerCopyScheme>(geometry.banks_per_vault), nullptr,
      stats, [&](const hmc::MemRequest&, Tick) { ++responses; });

  // Drive the vault with a synthetic stream: 8 sequential lines per row.
  u64 id = 1;
  for (u64 i = 0; i < 4000; ++i) {
    hmc::MemRequest req;
    req.id = id++;
    req.type = AccessType::kRead;
    hmc::DecodedAddr d;
    d.vault = 0;
    d.bank = static_cast<BankId>((i / 8) % 16);
    d.row = (i / 128) % 64;
    d.column = static_cast<LineId>(i % 8);
    const Tick when = i * 2 * sim::kDramTicksPerCycle;
    sim.schedule_at(when, [&vault, req, d, when] {
      vault.receive(req, d, when);
    });
  }
  // Bounded run: the vault keeps scheduling refresh maintenance forever,
  // so drain up to a horizon that covers all the traffic above.
  sim.run_until(u64{4000} * 2 * sim::kDramTicksPerCycle + 4'000'000);

  std::printf("custom scheme '%s' on a vault-level stream:\n",
              vault.scheme().name().c_str());
  std::printf("  responses        : %llu\n",
              static_cast<unsigned long long>(responses));
  std::printf("  prefetches       : %llu\n",
              static_cast<unsigned long long>(vault.prefetches_issued()));
  std::printf("  buffer hits      : %llu\n",
              static_cast<unsigned long long>(vault.buffer().hits()));
  std::printf("  row buffer hits  : %llu, conflicts: %llu\n\n",
              static_cast<unsigned long long>(vault.row_hits()),
              static_cast<unsigned long long>(vault.row_conflicts()));

  // Full-system reference points for the same workload.
  using camps::exp::Table;
  Table table({"scheme", "geomean IPC", "pf accuracy"});
  for (auto kind : {prefetch::SchemeKind::kNone, prefetch::SchemeKind::kCamps,
                    prefetch::SchemeKind::kCampsMod}) {
    const auto r = run_with(workload, kind);
    table.add_row({r.scheme, Table::fmt(r.geomean_ipc),
                   Table::pct(r.prefetch_accuracy)});
  }
  std::printf("full-system reference on %s:\n%s", workload.c_str(),
              table.to_string().c_str());
  return 0;
}
