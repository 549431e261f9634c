// Ablation: physical address mapping. Table I fixes RoRaBaVaCo; this sweep
// shows why: the fine vault-interleaved map destroys row locality (the
// row-granularity prefetcher has nothing to harvest), while putting bank
// bits lowest concentrates streams in one bank.

#include <string>
#include <vector>
#include "bench_common.hpp"

using namespace camps;
using prefetch::SchemeKind;

static exp::Variant mapping(const char* name, hmc::FieldOrder order) {
  return {name,
          [order](system::SystemConfig& c) { c.hmc.field_order = order; }};
}

const std::string kWorkload = "MX2";
const std::vector<exp::Variant> kMaps = {
    mapping("RoRaBaVaCo (paper)", hmc::kRoRaBaVaCo),
    mapping("RoBaRaCoVa (line-interleave)", hmc::kRoBaRaCoVa),
    mapping("RoVaRaCoBa (bank-lowest)", hmc::kRoVaRaCoBa),
};

static bench::Output render(exp::Runner& runner) {
  exp::Table table({"mapping", "NONE IPC", "CAMPS-MOD IPC", "speedup",
                    "conflict rate", "pf accuracy"});
  for (const auto& m : kMaps) {
    const auto& none = runner.result(kWorkload, SchemeKind::kNone, m);
    const auto& cmod = runner.result(kWorkload, SchemeKind::kCampsMod, m);
    table.add_row({m.label, exp::Table::fmt(none.geomean_ipc),
                   exp::Table::fmt(cmod.geomean_ipc),
                   exp::Table::fmt(cmod.geomean_ipc / none.geomean_ipc),
                   exp::Table::pct(cmod.row_conflict_rate),
                   exp::Table::pct(cmod.prefetch_accuracy)});
  }
  return {std::move(table), ""};
}

const bench::Spec kSpec = {
    "ablate_addrmap", "Ablation: address mapping",
    "paper fixes RoRaBaVaCo (Table I)",
    exp::Runner::cross({kWorkload}, {SchemeKind::kNone, SchemeKind::kCampsMod},
                       kMaps), render};

int main(int argc, char** argv) { return bench::run(argc, argv, kSpec); }
