// Cold-path audit() definitions for the MSHR file and cache hierarchy
// (contract: check/audit.hpp; invariant catalog: docs/static_analysis.md).
// Kept out of the hot translation units so the audit code — which runs
// every N-hundred-thousand events, or never — does not dilute their .text.

#include <string>

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

void cache::CacheHierarchy::audit(check::AuditReporter& rep) const {
  const check::AuditScope scope(rep, "cache");
  mshrs_.audit(rep);
}

}  // namespace camps
