// Extension experiment (not in the paper): how CAMPS's benefit scales with
// the cube generation (vault-level parallelism and link speed), and what
// link power management (the paper's reference [13]) costs under each
// scheme.

#include <string>
#include <vector>
#include "bench_common.hpp"

using namespace camps;

/// Gen1 cube geometry and link speed on top of the sweep's config (its
/// fault campaign, tracing and audit settings stay).
static void gen1(system::SystemConfig& c) {
  const fault::FaultConfig fault = c.hmc.fault;
  c.hmc = system::hmc_gen1_config(c.scheme).hmc;
  c.hmc.fault = fault;
}

static void link_pm(system::SystemConfig& c) {
  c.hmc.link.power_management = true;
}

const std::vector<std::string> kWorkloads = {"HM2", "LM2"};
const std::vector<prefetch::SchemeKind> kSchemes = {
    prefetch::SchemeKind::kNone, prefetch::SchemeKind::kCampsMod};
const std::vector<exp::Variant> kGenerations = {
    {"gen2 (Table I)", nullptr},
    {"gen2 + link PM", link_pm},
    {"gen1", gen1},
    {"gen1 + link PM", [](system::SystemConfig& c) { gen1(c); link_pm(c); }},
};

static bench::Output render(exp::Runner& runner) {
  exp::Table table({"variant", "scheme", "IPC", "mem lat (cyc)",
                    "link util up", "wakeups"});
  for (const auto& w : kWorkloads) {
    for (const auto& g : kGenerations) {
      for (auto s : kSchemes) {
        const auto& r = runner.result(w, s, g);
        table.add_row({g.label + " / " + w, prefetch::to_string(s),
                       exp::Table::fmt(r.geomean_ipc),
                       exp::Table::fmt(r.mem_latency_cycles, 1),
                       exp::Table::pct(r.link_up_utilization),
                       std::to_string(r.link_wakeups)});
      }
    }
  }
  return {std::move(table), ""};
}

const bench::Spec kSpec = {
    "ext_generations", "Extension: HMC generation + link power management",
    "extension — gen1 (16 vaults) vs gen2 (32 vaults), link PM on/off",
    exp::Runner::cross(kWorkloads, kSchemes, kGenerations), render};

int main(int argc, char** argv) { return bench::run(argc, argv, kSpec); }
