// Miss Status Holding Registers for the shared L3 / memory boundary.
//
// Merges concurrent misses to the same line into one memory request: the
// first miss allocates an entry and triggers the fetch; later misses attach
// their callbacks. When the line returns, every waiter fires in arrival
// order.
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "check/audit.hpp"
#include "common/types.hpp"

namespace camps::cache {

class MshrFile final {
 public:
  using WakeFn = std::function<void()>;

  /// True when a fetch for `line_addr` is already outstanding.
  bool pending(Addr line_addr) const;

  /// Result of allocate(): whether this call must launch the memory fetch.
  enum class Allocate : u8 { kMustFetch, kMerged };

  /// Registers a waiter for `line_addr`.
  Allocate allocate(Addr line_addr, WakeFn waiter);

  /// Completes a fetch: removes the entry and returns its waiters.
  std::vector<WakeFn> complete(Addr line_addr);

  u32 entries_in_use() const { return static_cast<u32>(pending_.size()); }
  u64 merges() const { return merges_; }
  u64 allocations() const { return allocations_; }

  /// Invariants: every outstanding entry has at least one live waiter (the
  /// allocating miss registers one), and merges never outnumber the
  /// accesses that could have merged.
  void audit(check::AuditReporter& reporter) const;

 private:
  friend struct check::TestCorruptor;

  std::unordered_map<Addr, std::vector<WakeFn>> pending_;
  u64 merges_ = 0, allocations_ = 0;
};

static_assert(check::Auditable<MshrFile>);

}  // namespace camps::cache
