// Extension experiment (not in the paper): multiprogramming fairness.
// The paper reports geomean IPC (Fig. 5); the multiprogramming literature
// also asks whether a scheme's gains come at some co-runner's expense.
// Weighted speedup (throughput in jobs' worth of progress) and harmonic
// speedup (throughput-fairness balance) both use per-benchmark solo runs
// as the denominator.

#include <string>
#include <vector>
#include "bench_common.hpp"

using namespace camps;
using prefetch::SchemeKind;

const std::vector<SchemeKind> kSchemes = {
    SchemeKind::kBase, SchemeKind::kMmd, SchemeKind::kCampsMod};
const std::vector<std::string> kWorkloads = {"HM2", "HM3", "LM2", "MX1",
                                             "MX2"};

// The whole sweep: the mix runs plus every distinct (benchmark, scheme)
// solo run the fairness denominators need.
static std::vector<exp::Runner::Job> jobs() {
  auto jobs = exp::Runner::cross(kWorkloads, kSchemes);
  for (const auto& w : kWorkloads) {
    for (const auto& benchmark : workload::workload(w).benchmarks) {
      for (auto s : kSchemes) jobs.push_back({benchmark, s, {}, true});
    }
  }
  return jobs;
}

static bench::Output render(exp::Runner& runner) {
  exp::Table table({"workload", "WS BASE", "WS MMD", "WS CAMPS-MOD",
                    "HS BASE", "HS MMD", "HS CAMPS-MOD"});
  for (const auto& w : kWorkloads) {
    auto row = bench::row(w, kSchemes, [&](SchemeKind s) {
      return exp::Table::fmt(runner.weighted_speedup(w, s), 2);
    });
    for (auto s : kSchemes) {
      row.push_back(exp::Table::fmt(runner.harmonic_speedup(w, s), 2));
    }
    table.add_row(std::move(row));
  }
  return {std::move(table),
          bench::format("\nWS: weighted speedup, max %u (every job at solo "
                        "speed).\nHS: harmonic speedup, penalizes "
                        "unfairness.\n",
                        workload::kCoresPerWorkload)};
}

const bench::Spec kSpec = {
    "ext_fairness", "Extension: weighted / harmonic speedup",
    "extension — fairness view of Fig. 5's gains", jobs(), render};

int main(int argc, char** argv) { return bench::run(argc, argv, kSpec); }
