// Figure 7: prefetching accuracy — of all rows prefetched into the buffer,
// the fraction whose data was actually demanded afterwards.
//
// Paper headline: CAMPS-MOD 70.5% on average, beating BASE by 33.3, BASE-HIT
// by 28.4 and MMD by 4.1 percentage points; plain CAMPS sits slightly
// (~1.5pp) below MMD.

#include <map>
#include <string>
#include <vector>
#include "bench_common.hpp"

using namespace camps;
using prefetch::SchemeKind;

static bench::Output render(exp::Runner& runner) {
  const auto schemes = prefetch::paper_schemes();
  exp::Table table(
      {"workload", "BASE", "BASE-HIT", "MMD", "CAMPS", "CAMPS-MOD"});
  std::map<SchemeKind, double> sums;
  for (const auto& w : exp::Runner::all_workloads()) {
    table.add_row(bench::row(w, schemes, [&](SchemeKind s) {
      const double acc = runner.result(w, s).prefetch_accuracy;
      sums[s] += acc;
      return exp::Table::pct(acc);
    }));
  }
  table.add_row(bench::row("AVG", schemes, [&](SchemeKind s) {
    return exp::Table::pct(sums[s] / 12.0);
  }));
  return {std::move(table),
          bench::format("\nmeasured averages: BASE %.1f%%, BASE-HIT %.1f%%, "
                        "MMD %.1f%%, CAMPS %.1f%%, CAMPS-MOD %.1f%%\n",
                        sums[SchemeKind::kBase] / 12.0 * 100,
                        sums[SchemeKind::kBaseHit] / 12.0 * 100,
                        sums[SchemeKind::kMmd] / 12.0 * 100,
                        sums[SchemeKind::kCamps] / 12.0 * 100,
                        sums[SchemeKind::kCampsMod] / 12.0 * 100)};
}

const bench::Spec kSpec = {
    "fig7_accuracy", "Figure 7: prefetching accuracy",
    "CAMPS-MOD 70.5% avg; +33.3pp vs BASE, +4.1pp vs MMD",
    exp::Runner::cross(exp::Runner::all_workloads(),
                       prefetch::paper_schemes()), render};

int main(int argc, char** argv) { return bench::run(argc, argv, kSpec); }
