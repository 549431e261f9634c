// The HMC logic-layer crossbar between link ports and vault controllers.
//
// A 4x32 crossbar at logic-layer clock speeds has ample internal bandwidth;
// the performance-relevant effect is its pipeline latency plus head-of-line
// arbitration at each vault port. We model a fixed traversal latency and a
// per-output-port serializer (one packet per vault port per controller
// cycle), which captures the congestion that matters without simulating
// individual switch stages.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "obs/trace_recorder.hpp"

namespace camps::fault {
class FaultPlan;
}  // namespace camps::fault

namespace camps::hmc {

struct CrossbarParams {
  /// Fixed traversal latency in ticks (default 2.5 ns: a couple of logic
  /// layer pipeline stages).
  Tick latency_ticks = 60;
  /// Minimum spacing between packets delivered to the same output port,
  /// in ticks (default: one 800 MHz controller cycle).
  Tick port_interval_ticks = 30;

  bool operator==(const CrossbarParams&) const = default;
};

class Crossbar {
 public:
  Crossbar(u32 output_ports, const CrossbarParams& params = {});

  /// Outcome of one traversal attempt.
  struct Routed {
    Tick deliver = 0;     ///< Meaningless when dropped.
    bool dropped = false; ///< Grant lost (injected fault); never forwarded.
  };

  /// Routes a packet submitted at `now` toward `port`; returns its delivery
  /// tick at that port. Per-port FIFO order is preserved. `trace_id` tags
  /// the traversal span when tracing is armed. A grant dropped under fault
  /// injection does not advance the port's schedule — the packet simply
  /// never traversed.
  Routed route(Tick now, u32 port, u64 trace_id = 0);

  /// Arms span recording (stage kXbarDown or kXbarUp, lane = output port).
  void attach_trace(obs::TraceRecorder* trace, obs::Stage stage) {
    trace_ = trace;
    trace_stage_ = stage;
  }

  /// Arms fault injection. `unit_base` offsets this crossbar's ports in
  /// the plan's sequence space so the down and up crossbars draw
  /// independent decision streams.
  void attach_faults(fault::FaultPlan* plan, u32 unit_base) {
    plan_ = plan;
    fault_unit_base_ = unit_base;
  }

  u64 packets_routed() const { return packets_; }
  u32 ports() const { return static_cast<u32>(port_free_.size()); }

 private:
  CrossbarParams p_;
  obs::TraceRecorder* trace_ = nullptr;
  obs::Stage trace_stage_ = obs::Stage::kXbarDown;
  fault::FaultPlan* plan_ = nullptr;
  u32 fault_unit_base_ = 0;
  std::vector<Tick> port_free_;
  u64 packets_ = 0;
};

}  // namespace camps::hmc
