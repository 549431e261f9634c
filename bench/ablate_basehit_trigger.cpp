// Ablation: BASE-HIT's queued-hit trigger (the paper uses 2). Higher
// triggers fetch less speculatively — fewer rows moved, higher accuracy,
// lower coverage.

#include <string>
#include "bench_common.hpp"

using namespace camps;
using prefetch::SchemeKind;

const std::string kWorkload = "HM2";
const bench::Axis kMinHits = {
    "min_hits", {2, 3, 4, 6, 8}, [](system::SystemConfig& c, u32 n) {
      c.scheme_params.base_hit_min_hits = n;
    }};

static bench::Output render(exp::Runner& runner) {
  const double base_ipc =
      runner.result(kWorkload, SchemeKind::kBase).geomean_ipc;
  exp::Table table(
      {"min hits", "speedup vs BASE", "prefetches", "accuracy", "buffer hits"});
  for (u32 n : kMinHits.values) {
    const auto& r =
        runner.result(kWorkload, SchemeKind::kBaseHit, kMinHits.at(n));
    table.add_row({std::to_string(n), exp::Table::fmt(r.geomean_ipc / base_ipc),
                   std::to_string(r.prefetches),
                   exp::Table::pct(r.prefetch_accuracy),
                   std::to_string(r.buffer_hits)});
  }
  return {std::move(table), ""};
}

const bench::Spec kSpec = {
    "ablate_basehit_trigger", "Ablation: BASE-HIT queued-hit trigger",
    "paper uses >= 2 read-queue hits (Section 5)",
    kMinHits.jobs({kWorkload}, {SchemeKind::kBaseHit}), render};

int main(int argc, char** argv) { return bench::run(argc, argv, kSpec); }
