// Figure 9: average HMC energy consumption normalized to BASE (lower is
// better), for BASE, MMD, and CAMPS-MOD.
//
// Paper headline: MMD consumes 6.0% and CAMPS-MOD 8.5% less energy than
// BASE, mainly from fewer activate/precharge operations and fewer wasted
// whole-row moves.
#include "bench_common.hpp"

using namespace camps;
using prefetch::SchemeKind;

static bench::Output render(exp::Runner& runner) {
  exp::Table table({"workload", "BASE", "MMD", "CAMPS-MOD"});
  double mmd_sum = 0.0, cmod_sum = 0.0;
  for (const auto& w : exp::Runner::all_workloads()) {
    // Energy is compared per unit of work: the runs execute the same
    // instruction budget, so total measured-window energy is comparable.
    const double base = runner.result(w, SchemeKind::kBase).energy_pj;
    const double mmd = runner.result(w, SchemeKind::kMmd).energy_pj / base;
    const double cmod =
        runner.result(w, SchemeKind::kCampsMod).energy_pj / base;
    mmd_sum += mmd;
    cmod_sum += cmod;
    table.add_row({w, "1.000", exp::Table::fmt(mmd), exp::Table::fmt(cmod)});
  }
  table.add_row({"AVG", "1.000", exp::Table::fmt(mmd_sum / 12.0),
                 exp::Table::fmt(cmod_sum / 12.0)});
  return {std::move(table),
          bench::format("\nmeasured: MMD %.1f%% (paper -6.0%%), CAMPS-MOD "
                        "%.1f%% (paper -8.5%%) vs BASE\n",
                        (mmd_sum / 12.0 - 1.0) * 100.0,
                        (cmod_sum / 12.0 - 1.0) * 100.0)};
}

const bench::Spec kSpec = {
    "fig9_energy", "Figure 9: HMC energy normalized to BASE",
    "MMD -6.0%, CAMPS-MOD -8.5% vs BASE",
    exp::Runner::cross(
        exp::Runner::all_workloads(),
        {SchemeKind::kBase, SchemeKind::kMmd, SchemeKind::kCampsMod}), render};

int main(int argc, char** argv) { return bench::run(argc, argv, kSpec); }
