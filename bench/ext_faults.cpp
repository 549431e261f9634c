// Extension experiment (not in the paper): fault-injection campaign.
// Re-runs the Table II workloads under CAMPS-MOD with a seeded CRC-error
// rate of 1e-4 per link transfer (plus a sprinkling of vault stalls) and
// reports what the recovery machinery cost: IPC delta against the
// fault-free run, faults injected vs recovered, and the recovery-latency
// tail. The campaign is deterministic — fault decisions are pure hashes of
// (seed, site, unit, sequence) — so the table and --stats-json output are
// byte-identical across --jobs values.

#include <string>
#include <vector>
#include "bench_common.hpp"

using namespace camps;
using prefetch::SchemeKind;

// The campaign, seeded from the run's workload seed.
const exp::Variant kFaults = {"faults", [](system::SystemConfig& c) {
                                c.hmc.fault.link_crc_rate = 1e-4;
                                c.hmc.fault.vault_stall_rate = 1e-5;
                                c.hmc.fault.vault_degrade_threshold = 16;
                                c.hmc.fault.seed = c.seed;
                              }};

static bench::Output render(exp::Runner& runner) {
  exp::Table table({"workload", "IPC clean", "IPC fault", "dIPC %",
                    "injected", "replays", "retries", "poisoned", "flushes",
                    "rec p95 cyc"});
  for (const auto& w : exp::Runner::all_workloads()) {
    const auto& clean = runner.result(w, SchemeKind::kCampsMod);
    const auto& faulty = runner.result(w, SchemeKind::kCampsMod, kFaults);
    const double dipc = clean.geomean_ipc > 0.0
                            ? (faulty.geomean_ipc / clean.geomean_ipc - 1.0) *
                                  100.0
                            : 0.0;
    table.add_row({w, exp::Table::fmt(clean.geomean_ipc, 3),
                   exp::Table::fmt(faulty.geomean_ipc, 3),
                   exp::Table::fmt(dipc, 2),
                   std::to_string(faulty.faults.injected()),
                   std::to_string(faulty.faults.replays),
                   std::to_string(faulty.faults.host_retries),
                   std::to_string(faulty.faults.host_poisoned),
                   std::to_string(faulty.faults.degrade_flushes),
                   exp::Table::fmt(faulty.faults.recovery.p95, 0)});
  }
  return {std::move(table),
          "\nEvery injected fault must reappear as a replay, retry, or "
          "poisoned\ncompletion; run with --audit to additionally check the "
          "recovery\ninvariants (token conservation, RUT/CT hand-off) during "
          "the sweep.\n"};
}

const bench::Spec kSpec = {
    "ext_faults", "Extension: fault-injection campaign",
    "extension — CAMPS-MOD under a CRC-1e-4 fault storm",
    // Each workload clean and under the campaign.
    exp::Runner::cross(exp::Runner::all_workloads(), {SchemeKind::kCampsMod},
                       {{}, kFaults}), render};

int main(int argc, char** argv) { return bench::run(argc, argv, kSpec); }
