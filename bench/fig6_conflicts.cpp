// Figure 6: row-buffer conflict rate per scheme (lower is better). BASE is
// excluded, as in the paper: it precharges after every copy, so it has no
// conflicts by construction (we print it anyway as a sanity row).
//
// Paper headline: CAMPS-MOD reduces conflicts by 16.3% vs BASE-HIT and
// 13.6% vs MMD on average.

#include <map>
#include <string>
#include <vector>
#include "bench_common.hpp"

using namespace camps;
using prefetch::SchemeKind;

// The compared schemes, then BASE as the sanity column.
const std::vector<SchemeKind> kColumns = {
    SchemeKind::kBaseHit, SchemeKind::kMmd, SchemeKind::kCamps,
    SchemeKind::kCampsMod, SchemeKind::kBase};

static bench::Output render(exp::Runner& runner) {
  exp::Table table({"workload", "BASE-HIT", "MMD", "CAMPS", "CAMPS-MOD",
                    "BASE (sanity)"});
  std::map<SchemeKind, double> conflict_sums;
  for (const auto& w : exp::Runner::all_workloads()) {
    table.add_row(bench::row(w, kColumns, [&](SchemeKind s) {
      const double rate = runner.result(w, s).row_conflict_rate;
      conflict_sums[s] += rate;
      return exp::Table::pct(rate);
    }));
  }
  table.add_row(bench::row("AVG", kColumns, [&](SchemeKind s) {
    return s == SchemeKind::kBase ? "-"
                                  : exp::Table::pct(conflict_sums[s] / 12.0);
  }));

  const double cmod = conflict_sums[SchemeKind::kCampsMod];
  const double bh = conflict_sums[SchemeKind::kBaseHit];
  const double mmd = conflict_sums[SchemeKind::kMmd];
  return {std::move(table),
          bench::format("\nmeasured: CAMPS-MOD conflict rate %+.1f%% vs "
                        "BASE-HIT (paper -16.3%%), %+.1f%% vs MMD (paper "
                        "-13.6%%)\n",
                        (cmod / bh - 1.0) * 100.0, (cmod / mmd - 1.0) * 100.0)};
}

const bench::Spec kSpec = {
    "fig6_conflicts", "Figure 6: row-buffer conflict rate",
    "CAMPS-MOD conflicts -16.3% vs BASE-HIT, -13.6% vs MMD",
    exp::Runner::cross(exp::Runner::all_workloads(), kColumns), render};

int main(int argc, char** argv) { return bench::run(argc, argv, kSpec); }
