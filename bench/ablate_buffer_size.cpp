// Ablation: prefetch buffer capacity (paper fixes 16 KB = 16 rows/vault).
// Sweeps 4..64 entries for CAMPS and CAMPS-MOD; the gap between the two
// replacement policies narrows as capacity pressure disappears.

#include <string>
#include <vector>
#include "bench_common.hpp"

using namespace camps;
using prefetch::SchemeKind;

const std::string kWorkload = "MX2";
const std::vector<SchemeKind> kSchemes = {SchemeKind::kCamps,
                                          SchemeKind::kCampsMod};
const bench::Axis kEntries = {
    "entries", {4, 8, 16, 32, 64},
    [](system::SystemConfig& c, u32 n) { c.hmc.vault.buffer.entries = n; }};

static bench::Output render(exp::Runner& runner) {
  exp::Table table({"entries", "CAMPS speedup", "CAMPS-MOD speedup",
                    "CAMPS-MOD buffer hits", "CAMPS-MOD accuracy"});
  for (u32 n : kEntries.values) {
    auto row = bench::row(std::to_string(n), kSchemes, [&](SchemeKind s) {
      return exp::Table::fmt(
          runner.speedup(kWorkload, s, SchemeKind::kBase, kEntries.at(n)));
    });
    const auto& cmod =
        runner.result(kWorkload, SchemeKind::kCampsMod, kEntries.at(n));
    row.push_back(std::to_string(cmod.buffer_hits));
    row.push_back(exp::Table::pct(cmod.prefetch_accuracy));
    table.add_row(std::move(row));
  }
  return {std::move(table), ""};
}

const bench::Spec kSpec = {
    "ablate_buffer_size", "Ablation: prefetch buffer entries per vault",
    "paper fixes 16 x 1 KB (Table I)", kEntries.jobs({kWorkload}, kSchemes),
    render};

int main(int argc, char** argv) { return bench::run(argc, argv, kSpec); }
