#include "cache/mshr.hpp"

#include <string>
#include <vector>

#include "common/assert.hpp"

namespace camps::cache {

bool MshrFile::pending(Addr line_addr) const {
  return pending_.count(line_addr) != 0;
}

MshrFile::Allocate MshrFile::allocate(Addr line_addr, WakeFn waiter) {
  auto it = pending_.find(line_addr);
  if (it != pending_.end()) {
    it->second.push_back(std::move(waiter));
    ++merges_;
    return Allocate::kMerged;
  }
  pending_[line_addr].push_back(std::move(waiter));
  ++allocations_;
  return Allocate::kMustFetch;
}

std::vector<MshrFile::WakeFn> MshrFile::complete(Addr line_addr) {
  auto it = pending_.find(line_addr);
  CAMPS_ASSERT_MSG(it != pending_.end(), "completion for unknown MSHR line");
  std::vector<WakeFn> waiters = std::move(it->second);
  pending_.erase(it);
  return waiters;
}

}  // namespace camps::cache
