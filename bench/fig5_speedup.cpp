// Figure 5: normalized performance (geomean IPC, BASE = 1) of BASE,
// BASE-HIT, MMD, CAMPS, CAMPS-MOD over the twelve Table II workloads.
//
// Paper headline: CAMPS-MOD +17.9% vs BASE, +16.8% vs BASE-HIT, +8.7% vs
// MMD on average; per class +24.9% (HM), +9.4% (LM), +19.6% (MX) vs BASE.

#include <string>
#include <vector>
#include "bench_common.hpp"

using namespace camps;
using prefetch::SchemeKind;

static bench::Output render(exp::Runner& runner) {
  const auto all = exp::Runner::all_workloads();
  const auto schemes = prefetch::paper_schemes();
  auto mean = [&](std::string label,
                  const std::vector<std::string>& workloads) {
    return bench::row(std::move(label), schemes, [&](SchemeKind s) {
      return exp::Table::fmt(
          runner.mean_speedup(workloads, s, SchemeKind::kBase));
    });
  };
  exp::Table table(
      {"workload", "BASE", "BASE-HIT", "MMD", "CAMPS", "CAMPS-MOD"});
  for (const auto& w : all) {
    table.add_row(bench::row(w, schemes, [&](SchemeKind s) {
      return exp::Table::fmt(runner.speedup(w, s, SchemeKind::kBase));
    }));
  }
  // Class and overall geometric means (the paper's quoted aggregates).
  for (auto cls : {workload::WorkloadClass::kHM, workload::WorkloadClass::kLM,
                   workload::WorkloadClass::kMX}) {
    table.add_row(mean(std::string(workload::to_string(cls)) + "-avg",
                       exp::Runner::workloads_of(cls)));
  }
  table.add_row(mean("AVG", all));

  const double avg =
      runner.mean_speedup(all, SchemeKind::kCampsMod, SchemeKind::kBase);
  const double vs_mmd =
      avg / runner.mean_speedup(all, SchemeKind::kMmd, SchemeKind::kBase);
  return {std::move(table),
          bench::format("\nmeasured: CAMPS-MOD %+.1f%% vs BASE (paper "
                        "+17.9%%), %+.1f%% vs MMD (paper +8.7%%)\n",
                        (avg - 1.0) * 100.0, (vs_mmd - 1.0) * 100.0)};
}

const bench::Spec kSpec = {
    "fig5_speedup", "Figure 5: normalized speedup over BASE",
    "CAMPS-MOD avg +17.9% vs BASE, +16.8% vs BASE-HIT, +8.7% vs MMD",
    exp::Runner::cross(exp::Runner::all_workloads(),
                       prefetch::paper_schemes()), render};

int main(int argc, char** argv) { return bench::run(argc, argv, kSpec); }
