// Ablation: row-buffer page policy (Table I fixes open page). Closed page
// removes row-buffer conflicts at the price of losing row hits; CAMPS's
// selective fetch+precharge is effectively a *learned* middle ground, which
// this sweep makes visible.

#include <string>
#include <vector>
#include "bench_common.hpp"

using namespace camps;

static exp::Variant policy(hmc::PagePolicy p) {
  return {p == hmc::PagePolicy::kOpen ? "open" : "closed",
          [p](system::SystemConfig& c) { c.hmc.vault.page_policy = p; }};
}

const std::vector<std::string> kWorkloads = {"HM3", "MX2"};
const std::vector<prefetch::SchemeKind> kSchemes = {
    prefetch::SchemeKind::kNone, prefetch::SchemeKind::kCampsMod};
const std::vector<exp::Variant> kPolicies = {policy(hmc::PagePolicy::kOpen),
                                             policy(hmc::PagePolicy::kClosed)};

static bench::Output render(exp::Runner& runner) {
  exp::Table table({"workload", "scheme", "policy", "IPC", "row hits",
                    "conflicts", "conflict rate"});
  for (const auto& w : kWorkloads) {
    for (auto s : kSchemes) {
      for (const auto& p : kPolicies) {
        const auto& r = runner.result(w, s, p);
        table.add_row({w, prefetch::to_string(s), p.label,
                       exp::Table::fmt(r.geomean_ipc),
                       std::to_string(r.row_hits),
                       std::to_string(r.row_conflicts),
                       exp::Table::pct(r.row_conflict_rate)});
      }
    }
  }
  return {std::move(table), ""};
}

const bench::Spec kSpec = {
    "ablate_page_policy", "Ablation: page policy",
    "paper fixes open page (Table I)",
    exp::Runner::cross(kWorkloads, kSchemes, kPolicies), render};

int main(int argc, char** argv) { return bench::run(argc, argv, kSpec); }
