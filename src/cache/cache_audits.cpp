// Cold-path audit() definitions for the tag store, MSHR file and cache
// hierarchy (contract: check/audit.hpp; invariant catalog:
// docs/static_analysis.md).
// Kept out of the hot translation units so the audit code — which runs
// every N-hundred-thousand events, or never — does not dilute their .text.

#include <string>

#include "cache/cache.hpp"
#include "cache/hierarchy.hpp"
#include "cache/mshr.hpp"
#include "check/audit.hpp"

namespace camps {

void cache::MshrFile::audit(check::AuditReporter& rep) const {
  const check::AuditScope scope(rep, "mshr");
  for (const auto& [line, waiters] : pending_) {
    rep.expect(!waiters.empty(), "mshr-orphan",
               "line " + std::to_string(line) +
                   " is outstanding with no registered waiter");
    for (const WakeFn& w : waiters) {
      rep.expect(static_cast<bool>(w), "mshr-dead-waiter",
                 "line " + std::to_string(line) +
                     " holds an empty wake callback");
    }
  }
  rep.expect(pending_.size() <= allocations_, "mshr-crossfoot",
             "more lines outstanding than fetches ever launched");
}

void cache::Cache::audit(check::AuditReporter& rep) const {
  // One check per set and rule. The L3 alone has 16,384 sets, so a detail
  // string is built only for a violation.
  for (u64 set = 0; set < cfg_.sets(); ++set) {
    const u32* const keys = keys_.data() + first_way(set);
    const u32* const stamps = stamps_.data() + first_way(set);
    auto where = [set] { return "set " + std::to_string(set); };
    std::string duplicate, stamp;  // the first violation of each rule
    for (u32 b = 0; b < cfg_.ways; ++b) {
      if (keys[b] == kInvalid) continue;
      if (stamp.empty() && stamps[b] > lru_clock_[set]) {
        stamp = where() + " way " + std::to_string(b) + " has stamp " +
                std::to_string(stamps[b]) + " past the clock " +
                std::to_string(lru_clock_[set]);
      }
      for (u32 a = 0; a < b; ++a) {
        if (keys[a] == kInvalid) continue;
        if (duplicate.empty() && (keys[a] & ~kDirty) == (keys[b] & ~kDirty)) {
          duplicate = where() + " holds tag " +
                      std::to_string((keys[b] >> 1) - 1) + " in ways " +
                      std::to_string(a) + " and " + std::to_string(b);
        }
        if (stamp.empty() && stamps[a] == stamps[b]) {
          stamp = where() + " ways " + std::to_string(a) + " and " +
                  std::to_string(b) + " share LRU stamp " +
                  std::to_string(stamps[b]);
        }
      }
    }
    rep.expect(duplicate.empty(), "cache-tag-duplicate", duplicate);
    rep.expect(stamp.empty(), "cache-lru-stamp", stamp);
  }
}

void cache::CacheHierarchy::audit(check::AuditReporter& rep) const {
  const check::AuditScope scope(rep, "cache");
  mshrs_.audit(rep);
  for (size_t core = 0; core < l1_.size(); ++core) {
    {
      const check::AuditScope level(rep, "l1_" + std::to_string(core));
      l1_[core]->audit(rep);
    }
    const check::AuditScope level(rep, "l2_" + std::to_string(core));
    l2_[core]->audit(rep);
  }
  const check::AuditScope level(rep, "l3");
  l3_.audit(rep);
}

}  // namespace camps
