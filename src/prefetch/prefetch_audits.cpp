// Cold-path audit() definitions for the CAMPS profiling structures
// (contract: check/audit.hpp; invariant catalog: docs/static_analysis.md).
// Kept out of the hot translation units so the audit code — which runs
// every N-hundred-thousand events, or never — does not dilute their .text.

#include <algorithm>
#include <bit>
#include <set>
#include <string>
#include <vector>

#include "check/audit.hpp"
#include "prefetch/conflict_table.hpp"
#include "prefetch/prefetch_buffer.hpp"
#include "prefetch/rut.hpp"
#include "prefetch/scheme_camps.hpp"

namespace camps {

void prefetch::ConflictTable::audit(check::AuditReporter& rep) const {
  const check::AuditScope scope(rep, "conflict_table");
  rep.expect(lru_.size() <= capacity_, "ct-capacity",
             std::to_string(lru_.size()) + " entries exceed the table's " +
                 std::to_string(capacity_) + "-entry capacity");
  // Fully associative: one entry per (bank,row). A duplicate would make
  // remove() leave a stale copy behind and corrupt the LRU order.
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    const auto dup = std::find(std::next(it), lru_.end(), *it);
    rep.expect(dup == lru_.end(), "ct-duplicate",
               "(bank " + std::to_string(it->bank) + ", row " +
                   std::to_string(it->row) +
                   ") appears more than once in the LRU order");
  }
}

void prefetch::RowUtilizationTable::audit(check::AuditReporter& rep) const {
  const check::AuditScope scope(rep, "rut");
  rep.expect(!entries_.empty(), "rut-shape", "table has no bank slots");
  for (size_t bank = 0; bank < entries_.size(); ++bank) {
    const auto& slot = entries_[bank];
    if (!slot) continue;
    rep.expect(slot->count >= 1, "rut-count",
               "bank " + std::to_string(bank) + " profiles row " +
                   std::to_string(slot->row) +
                   " with a zero request count (entries are created by "
                   "touch() with count 1)");
  }
}

void prefetch::PrefetchBuffer::audit(check::AuditReporter& rep) const {
  const check::AuditScope scope(rep, "prefetch_buffer");

  // Recency stack: a permutation of exactly the valid slots. Combined with
  // recency_of_position() this is Section 3.2's requirement that resident
  // rows carry distinct recency values with MRU = entries-1.
  rep.expect(mru_order_.size() <= cfg_.entries, "recency-overflow",
             "recency stack holds " + std::to_string(mru_order_.size()) +
                 " slots but the buffer has " + std::to_string(cfg_.entries));
  std::vector<bool> seen(slots_.size(), false);
  for (const u32 slot : mru_order_) {
    if (!rep.expect(slot < slots_.size(), "recency-range",
                    "recency stack references slot " + std::to_string(slot) +
                        " outside the buffer's " +
                        std::to_string(slots_.size()) + " slots")) {
      continue;
    }
    rep.expect(!seen[slot], "recency-permutation",
               "slot " + std::to_string(slot) +
                   " appears twice in the recency stack");
    seen[slot] = true;
    rep.expect(slots_[slot].valid, "recency-permutation",
               "recency stack lists slot " + std::to_string(slot) +
                   " but that slot is invalid");
  }
  u32 valid_slots = 0;
  for (const auto& e : slots_) valid_slots += e.valid ? 1 : 0;
  rep.expect(valid_slots == mru_order_.size(), "recency-permutation",
             std::to_string(valid_slots) + " resident rows but " +
                 std::to_string(mru_order_.size()) +
                 " recency-stack positions");

  // Per-entry bookkeeping.
  const u64 line_mask =
      lines_per_row_ >= 64 ? ~u64{0} : (u64{1} << lines_per_row_) - 1;
  for (u32 slot = 0; slot < slots_.size(); ++slot) {
    const Entry& e = slots_[slot];
    if (!e.valid) continue;
    const std::string who = "slot " + std::to_string(slot) + " (bank " +
                            std::to_string(e.id.bank) + ", row " +
                            std::to_string(e.id.row) + ")";
    rep.expect(e.utilization ==
                   static_cast<u32>(std::popcount(e.accessed_bitmap)),
               "utilization-popcount",
               who + ": cached utilization " +
                   std::to_string(e.utilization) +
                   " != popcount of accessed bitmap");
    rep.expect(e.utilization <= lines_per_row_, "utilization-bound",
               who + ": utilization " + std::to_string(e.utilization) +
                   " exceeds " + std::to_string(lines_per_row_) +
                   " lines per row");
    rep.expect((e.accessed_bitmap & ~line_mask) == 0 &&
                   (e.seed_bitmap & ~line_mask) == 0,
               "bitmap-range",
               who + ": reference bitmap marks lines past the row's " +
                   std::to_string(lines_per_row_) + " lines");
    rep.expect(e.useful_refs >= e.utilization, "useful-refs",
               who + ": " + std::to_string(e.useful_refs) +
                   " useful references cannot cover " +
                   std::to_string(e.utilization) + " distinct lines");
    // Duplicate residency would let one demand hit two copies.
    for (u32 other = slot + 1; other < slots_.size(); ++other) {
      rep.expect(!slots_[other].valid || !(slots_[other].id == e.id),
                 "duplicate-row",
                 who + ": also resident in slot " + std::to_string(other));
    }
  }

  // Victim-selection precondition: insert() on a full buffer consults the
  // policy, which requires a populated candidate list.
  rep.expect(policy_ != nullptr, "policy-missing",
             "no replacement policy attached");

  // Eviction statistics cross-foot with the histograms.
  rep.expect(evict_util_hist_.size() == lines_per_row_ + 1 &&
                 evict_unused_hist_.size() == lines_per_row_ + 1,
             "histogram-shape", "eviction histograms not sized lines+1");
  u64 util_sum = 0, unused_sum = 0;
  for (const u64 v : evict_util_hist_) util_sum += v;
  for (const u64 v : evict_unused_hist_) unused_sum += v;
  rep.expect(util_sum == evictions_, "eviction-crossfoot",
             "utilization histogram total " + std::to_string(util_sum) +
                 " != evictions " + std::to_string(evictions_));
  rep.expect(unused_sum == evicted_unreferenced_, "eviction-crossfoot",
             "unused histogram total " + std::to_string(unused_sum) +
                 " != unreferenced evictions " +
                 std::to_string(evicted_unreferenced_));
  rep.expect(evicted_unreferenced_ <= evictions_ &&
                 finished_referenced_ <= finished_rows_,
             "eviction-crossfoot",
             "subset counters exceed their totals");
}

void prefetch::CampsScheme::audit(check::AuditReporter& rep) const {
  const check::AuditScope scope(rep, name() == "CAMPS-MOD" ? "camps_mod"
                                                           : "camps");
  rut_.audit(rep);
  ct_.audit(rep);

  // The configured CT shape survives (Table I: 32 entries). The RUT's
  // shape is the vault's bank count, checked by the vault's audit.
  rep.expect(ct_.capacity() == p_.conflict_entries, "ct-shape",
             "CT capacity " + std::to_string(ct_.capacity()) +
                 " != configured " + std::to_string(p_.conflict_entries));

  // Section 3.1 hand-off exclusivity: a row's profile is either still being
  // accumulated in the RUT (row owns the bank's row buffer) or archived in
  // the CT (row was displaced) — never both at once. Both copies counting
  // the same row would double-trigger prefetches.
  for (BankId bank = 0; bank < rut_.banks(); ++bank) {
    const auto entry = rut_.entry(bank);
    if (!entry) continue;
    rep.expect(!ct_.contains(BankRow{bank, entry->row}), "rut-ct-exclusive",
               "row " + std::to_string(entry->row) + " of bank " +
                   std::to_string(bank) +
                   " is profiled in the RUT and archived in the CT at once");
  }
}

}  // namespace camps
