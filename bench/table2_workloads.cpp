// Table II: the twelve eight-core SPEC CPU2006 workload mixes, printed from
// the live registry, plus the measured per-workload MPKI classification so
// the synthetic substitution can be audited against the paper's HM/LM
// definition (HM: MPKI >= 20; LM: 1 <= MPKI < 20).

#include <string>
#include "bench_common.hpp"

using namespace camps;

static bench::Output render(exp::Runner& runner) {
  exp::Table table({"ID", "class", "benchmarks", "measured MPKI"});
  for (const auto& w : workload::table2_workloads()) {
    std::string names;
    for (u32 c = 0; c < workload::kCoresPerWorkload; ++c) {
      if (c) names += ", ";
      names += w.benchmarks[c];
    }
    const double mpki = runner.result(w.id, prefetch::SchemeKind::kNone).mpki;
    table.add_row({w.id, workload::to_string(w.cls), names,
                   exp::Table::fmt(mpki, 1)});
  }
  return {std::move(table), ""};
}

const bench::Spec kSpec = {
    "table2_workloads", "Table II: SPEC CPU2006 benchmark sets",
    "12 workloads: HM1-4 (MPKI>=20), LM1-4 (1<=MPKI<20), MX1-4 (four HM + "
    "four LM)",
    exp::Runner::cross(exp::Runner::all_workloads(),
                       {prefetch::SchemeKind::kNone}), render};

int main(int argc, char** argv) { return bench::run(argc, argv, kSpec); }
