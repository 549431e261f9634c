// Cold-path audit() definition for the trace-driven core (contract:
// check/audit.hpp; invariant catalog: docs/static_analysis.md). Kept out of
// the hot translation unit like the other components' audits.

#include <string>

#include "check/audit.hpp"
#include "cpu/core.hpp"

namespace camps {

void cpu::Core::audit(check::AuditReporter& rep) const {
  const check::AuditScope scope(rep, "core" + std::to_string(id_));
  const u32 window = cfg_.max_outstanding_loads;
  rep.expect(hits_.size() <= window, "core-hits-window",
             std::to_string(hits_.size()) + " in-flight hits exceed the " +
                 std::to_string(window) + "-load window");
  rep.expect(outstanding_ == misses_ + hits_.size(), "core-outstanding",
             std::to_string(outstanding_) + " loads outstanding, but " +
                 std::to_string(misses_) + " misses and " +
                 std::to_string(hits_.size()) + " hits are in flight");
  // Records issued ahead precede the core's next miss, so the L1 sets they
  // went to must still have no fill pending for this core. For an L2 hit
  // that also covers its L2 sets: the counter of an L1 set counts the fills
  // into every L2 set that maps into it.
  for (const AheadRecord& r : ahead_) {
    rep.expect(caches_->pending_l1_fills(id_, r.addr) == 0, "core-ahead-fill",
               "a record issued ahead at tick " + std::to_string(r.at) +
                   " went to an L1 set with a fill pending");
  }
  if (halted_ || !current_) return;
  // The first record not issued ahead is planned: its step waits at the
  // issue tick, or, for a stall, at the issue tick after the hit that ends
  // it. A stall that only a miss can end has no step; the fill plans one.
  const sim::EventQueue& queue = sim_.queue();
  const char* rule = stalled_ ? "core-stall-step" : "core-step";
  if (stalled_ && resume_at_ == kTickNever) {
    rep.expect(misses_ > 0, rule,
               "stalled with no miss in flight: nothing can resume the core");
    rep.expect(!queue.pending(step_), rule,
               "a stall that only a miss fill can end has a step pending");
    return;
  }
  if (!rep.expect(queue.pending(step_), rule,
                  "a record is planned but no step is pending")) {
    return;
  }
  const Tick expected = issue_tick(stalled_ ? resume_at_ : cursor_);
  rep.expect(queue.time_of(step_) == expected, rule,
             "step pending at tick " + std::to_string(queue.time_of(step_)) +
                 ", but the record issues at " + std::to_string(expected));
}

}  // namespace camps
