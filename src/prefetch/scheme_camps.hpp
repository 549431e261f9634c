// CAMPS and CAMPS-MOD (Sections 3.1 / 3.2) — the paper's contribution.
//
// Per-vault state: a Row Utilization Table (one entry per bank) and a
// Conflict Table (32 entries, fully associative, LRU). Decision flow, as
// Figure 3 describes:
//
//   prefetch-buffer hit  -> served there; nothing to decide.
//   row-buffer HIT       -> count the access in the RUT; once the count
//                           reaches the threshold (4), fetch the whole row
//                           to the buffer, drop the RUT entry, precharge.
//   row-buffer MISS      -> the controller activates the row and serves the
//   (empty or conflict)     request. If the row already has a CT entry it
//                           is a proven conflict-causer: fetch it to the
//                           buffer, remove the CT entry, precharge.
//                           Otherwise keep the row open and (re)install it
//                           in the RUT; the entry it displaces moves to
//                           the CT.
//
// The scheme sees a request at its column command, which can come after
// another request's hit on the row it re-activated. So a hit on a row the
// CT still holds takes the miss path's CT branch: both outcomes run one
// flow, and a row is never profiled and archived at once.
//
// CAMPS pairs this with LRU buffer replacement; CAMPS-MOD swaps in the
// utilization+recency policy of Section 3.2. Both variants share this
// class — the only difference is make_replacement().
#pragma once

#include <memory>
#include <string>

#include "prefetch/conflict_table.hpp"
#include "prefetch/rut.hpp"
#include "prefetch/scheme.hpp"

namespace camps::prefetch {

struct CampsParams {
  u32 conflict_entries = 32;   ///< CT entries per vault.
  u32 utilization_threshold = 4;

  bool operator==(const CampsParams&) const = default;
};

class CampsScheme final : public PrefetchScheme {
 public:
  /// `banks` is the vault's bank count: one RUT entry per bank.
  /// `modified_replacement` selects CAMPS-MOD (utilization+recency buffer
  /// replacement) over CAMPS (LRU).
  explicit CampsScheme(u32 banks, const CampsParams& params = {},
                       bool modified_replacement = false);

  PrefetchDecision on_demand_access(const AccessContext& ctx) override;
  /// Degradation flush (fault recovery): empties the RUT and CT wholesale.
  /// Empty tables trivially satisfy the exclusivity invariant, so the
  /// hand-off state cannot be corrupted mid-flight.
  void on_fault_flush() override;
  std::string name() const override {
    return modified_replacement_ ? "CAMPS-MOD" : "CAMPS";
  }
  std::unique_ptr<ReplacementPolicy> make_replacement() const override;

  /// Invariants: the RUT and CT individually hold (delegated), the CT
  /// keeps its configured capacity, a row's profile lives in the RUT *or*
  /// the CT but never both (the Section 3.1 hand-off moves it atomically),
  /// and the prefetch counters cross-foot. In debug builds this also runs
  /// automatically after every structural transition (see
  /// CAMPS_AUDIT_TRANSITIONS in scheme_camps.cpp).
  void audit(check::AuditReporter& reporter) const override;

  // Introspection for tests and stats.
  const RowUtilizationTable& rut() const { return rut_; }
  const ConflictTable& conflict_table() const { return ct_; }
  u64 threshold_prefetches() const { return threshold_prefetches_; }
  u64 conflict_prefetches() const { return conflict_prefetches_; }

  /// Hardware overhead of the profiling tables in bits (paper Section 3.3:
  /// 16x20 + 32x20 bits per vault = 120 bytes/vault, 3.75 KB per device).
  u64 overhead_bits() const {
    return rut_.overhead_bits() + ct_.overhead_bits();
  }

 private:
  friend struct check::TestCorruptor;

  CampsParams p_;
  bool modified_replacement_;
  RowUtilizationTable rut_;
  ConflictTable ct_;
  u64 threshold_prefetches_ = 0;
  u64 conflict_prefetches_ = 0;
};

}  // namespace camps::prefetch
