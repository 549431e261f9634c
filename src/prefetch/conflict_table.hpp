// Conflict Table (Section 3.1).
//
// Fully associative, 32 entries per vault, shared by all the vault's banks,
// LRU-replaced. It remembers rows recently displaced from row buffers; a
// newly activated row found here has caused a row-buffer conflict recently
// and becomes a prefetch candidate.
#pragma once

#include <optional>
#include <vector>

#include "check/audit.hpp"
#include "common/types.hpp"

namespace camps::prefetch {

class ConflictTable final {
 public:
  explicit ConflictTable(u32 entries = 32);

  /// True if (bank,row) is present. Does not update LRU order (pure query).
  bool contains(BankRow id) const;

  /// Inserts (bank,row) as MRU. If present already, refreshes its LRU
  /// position. If full, evicts the LRU entry and returns it.
  std::optional<BankRow> insert(BankRow id);

  /// Removes the entry if present (after its row has been prefetched).
  /// Returns true when something was removed.
  bool remove(BankRow id);

  u32 size() const { return static_cast<u32>(lru_.size()); }
  u32 capacity() const { return capacity_; }

  /// LRU-ordered snapshot, MRU first (for tests/inspection).
  std::vector<BankRow> snapshot() const { return lru_; }

  /// Hardware footprint in bits (paper: 32 entries x 20 bits per vault).
  u64 overhead_bits() const { return u64{capacity_} * 20; }

  /// Invariants: at most `capacity` entries and no (bank,row) appears
  /// twice in the LRU order (Section 3.1's fully-associative table).
  void audit(check::AuditReporter& reporter) const;

 private:
  friend struct check::TestCorruptor;

  u32 capacity_;
  /// Front = MRU; reserved to capacity_, so inserts never allocate. 32
  /// entries: a linear scan and a rotate are cheaper than list nodes.
  std::vector<BankRow> lru_;
};

static_assert(check::Auditable<ConflictTable>);

}  // namespace camps::prefetch
