#include "hmc/crossbar.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "fault/fault_plan.hpp"

namespace camps::hmc {

Crossbar::Crossbar(u32 output_ports, const CrossbarParams& params)
    : p_(params), port_free_(output_ports, 0) {
  CAMPS_ASSERT(output_ports > 0);
}

Crossbar::Routed Crossbar::route(Tick now, u32 port, u64 trace_id) {
  CAMPS_ASSERT(port < port_free_.size());
  if (plan_ != nullptr &&
      plan_->roll(fault::Site::kXbarDrop, fault_unit_base_ + port)) {
    // The arbiter's grant was lost: the packet never traverses and the
    // output port's schedule is untouched. Recovery belongs to the
    // requester (host timeout path).
    plan_->count_xbar_drop();
    return Routed{0, true};
  }
  const Tick start = std::max(now, port_free_[port]);
  port_free_[port] = start + p_.port_interval_ticks;
  ++packets_;
  const Tick deliver = start + p_.latency_ticks;
  if (trace_ != nullptr) {
    trace_->record(trace_stage_, port, trace_id, now, deliver);
  }
  return Routed{deliver, false};
}

}  // namespace camps::hmc
