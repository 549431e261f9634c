#include "prefetch/conflict_table.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/assert.hpp"

namespace camps::prefetch {

ConflictTable::ConflictTable(u32 entries) : capacity_(entries) {
  CAMPS_ASSERT(entries > 0);
  lru_.reserve(capacity_);
}

bool ConflictTable::contains(BankRow id) const {
  return std::find(lru_.begin(), lru_.end(), id) != lru_.end();
}

std::optional<BankRow> ConflictTable::insert(BankRow id) {
  auto it = std::find(lru_.begin(), lru_.end(), id);
  std::optional<BankRow> evicted;
  if (it == lru_.end()) {
    if (lru_.size() == capacity_) {
      evicted = lru_.back();
      lru_.pop_back();
    }
    lru_.push_back(id);
    it = lru_.end() - 1;
  }
  // Move the entry to the front, shifting the more recent ones back by one.
  std::rotate(lru_.begin(), it, it + 1);
  return evicted;
}

bool ConflictTable::remove(BankRow id) {
  const auto it = std::find(lru_.begin(), lru_.end(), id);
  if (it == lru_.end()) return false;
  lru_.erase(it);
  return true;
}

}  // namespace camps::prefetch
