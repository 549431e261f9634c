// Ablation: Conflict Table capacity (paper fixes 32 entries per vault).
// Sweeps 4..128 entries for CAMPS-MOD: too small misses conflict-causers
// whose re-activation distance exceeds the table's reach; beyond the
// working set of conflicting rows the benefit saturates.

#include <string>
#include <vector>
#include "bench_common.hpp"

using namespace camps;
using prefetch::SchemeKind;

const std::vector<std::string> kWorkloads = {"HM3", "MX1"};
const bench::Axis kEntries = {
    "ct", {4, 8, 16, 32, 64, 128}, [](system::SystemConfig& c, u32 n) {
      c.scheme_params.camps.conflict_entries = n;
    }};

static bench::Output render(exp::Runner& runner) {
  exp::Table table({"CT entries", "HM3 speedup", "MX1 speedup",
                    "conflict rate (HM3)"});
  for (u32 n : kEntries.values) {
    auto row = bench::row(std::to_string(n), kWorkloads, [&](const auto& w) {
      return exp::Table::fmt(runner.speedup(w, SchemeKind::kCampsMod,
                                            SchemeKind::kBase, kEntries.at(n)));
    });
    row.push_back(exp::Table::pct(
        runner.result("HM3", SchemeKind::kCampsMod, kEntries.at(n))
            .row_conflict_rate));
    table.add_row(std::move(row));
  }
  return {std::move(table), ""};
}

const bench::Spec kSpec = {
    "ablate_ct_size", "Ablation: Conflict Table entries per vault",
    "paper fixes 32 entries (Section 3.1)",
    kEntries.jobs(kWorkloads, {SchemeKind::kCampsMod}), render};

int main(int argc, char** argv) { return bench::run(argc, argv, kSpec); }
