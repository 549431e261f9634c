#include "prefetch/scheme_camps.hpp"

#include <memory>
#include <string>

#include "common/assert.hpp"

// Debug builds self-audit the RUT/CT pair after every structural transition
// (each on_demand_access may displace a profile into the CT, consume a CT
// entry, or drop a RUT entry). Release builds skip this: the periodic
// --audit-every driver covers them without per-access cost.
#ifndef NDEBUG
#define CAMPS_AUDIT_TRANSITIONS 1
#else
#define CAMPS_AUDIT_TRANSITIONS 0
#endif

namespace camps::prefetch {

namespace {

/// Runs the scheme's audit and aborts through the CAMPS_ASSERT fail path
/// on any violation. Only called when CAMPS_AUDIT_TRANSITIONS is on.
[[maybe_unused]] void audit_transition(const CampsScheme& scheme) {
  check::AuditReporter rep;
  scheme.audit(rep);
  if (!rep.clean()) check::audit_fail(rep);
}

}  // namespace

CampsScheme::CampsScheme(u32 banks, const CampsParams& params,
                         bool modified_replacement)
    : p_(params),
      modified_replacement_(modified_replacement),
      rut_(banks),
      ct_(params.conflict_entries) {
  CAMPS_ASSERT(p_.utilization_threshold >= 1);
}

PrefetchDecision CampsScheme::on_demand_access(const AccessContext& ctx) {
#if CAMPS_AUDIT_TRANSITIONS
  // Audit on exit, after the RUT/CT hand-offs below have all settled.
  struct TransitionAudit {
    const CampsScheme* self;
    ~TransitionAudit() { audit_transition(*self); }
  } audit_on_exit{this};
#endif
  const BankRow id{ctx.bank, ctx.row};

  // Whatever other row the bank profiled has been displaced from the row
  // buffer, so its profile moves into the CT. On a row-buffer hit the RUT
  // entry is normally this row's own; a different one is stale (the row was
  // closed by refresh and another opened).
  if (auto displaced = rut_.displace(ctx.bank, ctx.row)) {
    ct_.insert(BankRow{ctx.bank, displaced->row});
  }

  if (ct_.remove(id)) {
    // The row was displaced recently and is open again — it causes
    // conflicts. Prefetch it and precharge; its CT entry is gone. A row
    // hit can land here too: the scheme sees a request at its column
    // command, so another request's hit can come first, while the one
    // that re-activated the row waits behind a write drain.
    ++conflict_prefetches_;
    PrefetchDecision d;
    d.fetch_row = true;
    d.precharge_after = true;
    return d;
  }

  // Not a known conflict-causer: keep the row open and profile it; past
  // the threshold the row has proven its utilization and moves to the
  // prefetch buffer.
  const u32 count = rut_.touch(ctx.bank, ctx.row);
  if (count >= p_.utilization_threshold) {
    // Degenerate thresholds (<= 1) fire on the very first access; kept
    // continuous so the threshold ablation sweeps cleanly into BASE-like
    // behaviour.
    rut_.remove(ctx.bank);
    ++threshold_prefetches_;
    PrefetchDecision d;
    d.fetch_row = true;
    d.precharge_after = true;
    return d;
  }
  return {};
}

void CampsScheme::on_fault_flush() {
#if CAMPS_AUDIT_TRANSITIONS
  struct TransitionAudit {
    const CampsScheme* self;
    ~TransitionAudit() { audit_transition(*self); }
  } audit_on_exit{this};
#endif
  for (BankId bank = 0; bank < rut_.banks(); ++bank) rut_.remove(bank);
  for (const BankRow& id : ct_.snapshot()) ct_.remove(id);
}

std::unique_ptr<ReplacementPolicy> CampsScheme::make_replacement() const {
  return modified_replacement_ ? make_utilization_recency() : make_lru();
}

}  // namespace camps::prefetch
