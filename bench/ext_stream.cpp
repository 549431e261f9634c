// Extension experiment (not in the paper): STREAM — a vault-side adaptation
// of adaptive stream detection (Hur & Lin, MICRO 2006, the paper's related
// work) — against CAMPS-MOD across the three workload classes. Stream
// detection tracks CAMPS on streaming-heavy mixes but cannot touch
// conflict-dominated traffic, which is precisely the behaviour gap the
// paper's Conflict Table closes.

#include <string>
#include <vector>
#include "bench_common.hpp"

using namespace camps;
using prefetch::SchemeKind;

const std::vector<SchemeKind> kSchemes = {
    SchemeKind::kStream, SchemeKind::kCamps, SchemeKind::kCampsMod};

static bench::Output render(exp::Runner& runner) {
  exp::Table table({"workload", "STREAM", "CAMPS", "CAMPS-MOD",
                    "STREAM accuracy", "CAMPS-MOD accuracy"});
  for (const auto& w : exp::Runner::all_workloads()) {
    auto row = bench::row(w, kSchemes, [&](SchemeKind s) {
      return exp::Table::fmt(runner.speedup(w, s, SchemeKind::kBase));
    });
    for (auto s : {SchemeKind::kStream, SchemeKind::kCampsMod}) {
      row.push_back(exp::Table::pct(runner.result(w, s).prefetch_accuracy));
    }
    table.add_row(std::move(row));
  }
  for (auto cls : {workload::WorkloadClass::kHM, workload::WorkloadClass::kLM,
                   workload::WorkloadClass::kMX}) {
    auto row = bench::row(
        std::string(workload::to_string(cls)) + "-avg", kSchemes,
        [&](SchemeKind s) {
          return exp::Table::fmt(runner.mean_speedup(
              exp::Runner::workloads_of(cls), s, SchemeKind::kBase));
        });
    row.insert(row.end(), {"-", "-"});
    table.add_row(std::move(row));
  }
  return {std::move(table), ""};
}

const bench::Spec kSpec = {
    "ext_stream", "Extension: STREAM vs CAMPS-MOD",
    "extension — quantifies the conflict-awareness gap",
    exp::Runner::cross(exp::Runner::all_workloads(),
                       {SchemeKind::kStream, SchemeKind::kCamps,
                        SchemeKind::kCampsMod, SchemeKind::kBase}), render};

int main(int argc, char** argv) { return bench::run(argc, argv, kSpec); }
