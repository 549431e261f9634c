// Ablation: the RUT utilization threshold (paper fixes it to 4).
// Sweeps 1..16 for CAMPS-MOD on one workload per class and reports speedup
// vs BASE plus prefetch volume/accuracy, exposing the coverage/pollution
// trade-off behind the paper's choice.

#include <string>
#include <vector>
#include "bench_common.hpp"

using namespace camps;
using prefetch::SchemeKind;

const std::vector<std::string> kWorkloads = {"HM2", "LM2", "MX2"};
const bench::Axis kThreshold = {
    "threshold", {1, 2, 3, 4, 6, 8, 12, 16},
    [](system::SystemConfig& c, u32 t) {
      c.scheme_params.camps.utilization_threshold = t;
    }};

static bench::Output render(exp::Runner& runner) {
  exp::Table table({"threshold", "HM2 speedup", "LM2 speedup", "MX2 speedup",
                    "prefetches (HM2)", "accuracy (HM2)"});
  for (u32 t : kThreshold.values) {
    auto row = bench::row(std::to_string(t), kWorkloads, [&](const auto& w) {
      return exp::Table::fmt(runner.speedup(
          w, SchemeKind::kCampsMod, SchemeKind::kBase, kThreshold.at(t)));
    });
    const auto& hm2 =
        runner.result("HM2", SchemeKind::kCampsMod, kThreshold.at(t));
    row.push_back(std::to_string(hm2.prefetches));
    row.push_back(exp::Table::pct(hm2.prefetch_accuracy));
    table.add_row(std::move(row));
  }
  return {std::move(table), ""};
}

const bench::Spec kSpec = {
    "ablate_threshold", "Ablation: RUT utilization threshold",
    "paper fixes threshold = 4 (Section 3.1)",
    kThreshold.jobs(kWorkloads, {SchemeKind::kCampsMod}), render};

int main(int argc, char** argv) { return bench::run(argc, argv, kSpec); }
