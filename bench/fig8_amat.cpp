// Figure 8: reduction in average memory access time (AMAT) relative to
// BASE, for MMD and CAMPS-MOD (higher reduction is better).
//
// Paper headline: CAMPS-MOD reduces AMAT by 26% vs BASE and is 16.3% ahead
// of MMD on this metric.
#include "bench_common.hpp"

using namespace camps;
using prefetch::SchemeKind;

static bench::Output render(exp::Runner& runner) {
  exp::Table table({"workload", "BASE AMAT (cyc)", "MMD reduction",
                    "CAMPS-MOD reduction"});
  double mmd_sum = 0.0, cmod_sum = 0.0;
  for (const auto& w : exp::Runner::all_workloads()) {
    const double base = runner.result(w, SchemeKind::kBase).amat_cycles;
    const double mmd = runner.result(w, SchemeKind::kMmd).amat_cycles;
    const double cmod = runner.result(w, SchemeKind::kCampsMod).amat_cycles;
    const double mmd_red = 1.0 - mmd / base;
    const double cmod_red = 1.0 - cmod / base;
    mmd_sum += mmd_red;
    cmod_sum += cmod_red;
    table.add_row({w, exp::Table::fmt(base, 1), exp::Table::pct(mmd_red),
                   exp::Table::pct(cmod_red)});
  }
  table.add_row({"AVG", "-", exp::Table::pct(mmd_sum / 12.0),
                 exp::Table::pct(cmod_sum / 12.0)});
  return {std::move(table),
          bench::format("\nmeasured: CAMPS-MOD AMAT reduction %.1f%% (paper "
                        "26%%), MMD %.1f%%\n",
                        cmod_sum / 12.0 * 100.0, mmd_sum / 12.0 * 100.0)};
}

const bench::Spec kSpec = {
    "fig8_amat", "Figure 8: AMAT reduction vs BASE",
    "CAMPS-MOD -26% AMAT vs BASE; 16.3% better than MMD",
    exp::Runner::cross(
        exp::Runner::all_workloads(),
        {SchemeKind::kBase, SchemeKind::kMmd, SchemeKind::kCampsMod}), render};

int main(int argc, char** argv) { return bench::run(argc, argv, kSpec); }
