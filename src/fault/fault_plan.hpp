// Deterministic fault plan: decides, packet by packet, where faults strike.
//
// Each (site, unit) pair owns a monotonically increasing packet sequence
// counter; a fault decision is a pure hash of (seed, site, unit, sequence)
// compared against the configured rate. No shared RNG stream exists, so the
// decision for the Nth packet through a site never depends on traffic at
// any other site, on thread count, or on sweep ordering — a fault campaign
// is bit-identical across --jobs values by construction (the same property
// the rest of the simulator guarantees for fault-free runs).
//
// The plan also owns the fault-side statistics: injected/recovered counters
// per mechanism and the per-fault recovery-latency histogram, registered
// under "fault.*" in the run's StatRegistry.
#pragma once

#include <map>

#include "common/stats.hpp"
#include "fault/fault_config.hpp"
#include "sim/clock.hpp"

namespace camps::fault {

class FaultPlan final {
 public:
  FaultPlan(const FaultConfig& config, StatRegistry& stats);

  const FaultConfig& config() const { return cfg_; }

  /// Draws the next decision for `unit` at `site`: advances that site's
  /// sequence counter and returns true when the packet faults (by rate or
  /// by a targeted fault pinned to this exact coordinate).
  bool roll(Site site, u32 unit);

  /// Sequence counter a (site, unit) pair will use next (tests pin
  /// targeted faults against this).
  u64 next_sequence(Site site, u32 unit) const;

  // --- recovery bookkeeping ---------------------------------------------
  void count_crc_error() { c_crc_errors_.inc(); }
  void count_replay(Tick recovery_ticks) {
    c_replays_.inc();
    record_recovery(recovery_ticks);
  }
  void count_link_drop() { c_link_drops_.inc(); }
  void count_xbar_drop() { c_xbar_drops_.inc(); }
  void count_vault_stall() { c_vault_stalls_.inc(); }
  void count_host_retry() { c_host_retries_.inc(); }
  void count_host_poison(Tick recovery_ticks) {
    c_host_poisoned_.inc();
    record_recovery(recovery_ticks);
  }
  /// A retried request's response finally arrived.
  void count_host_recovery(Tick recovery_ticks) {
    record_recovery(recovery_ticks);
  }
  void count_late_response() { c_late_responses_.inc(); }
  void count_degrade_flush() { c_degrade_flushes_.inc(); }
  void count_token_stall_ticks(Tick ticks) { c_token_stall_ticks_.inc(ticks); }

  const Histogram& recovery() const { return h_recovery_; }

 private:
  double rate_for(Site site) const;
  void record_recovery(Tick ticks) {
    h_recovery_.sample(ticks / sim::kCpuTicksPerCycle);
  }

  FaultConfig cfg_;
  /// Per-(site, unit) packet sequence counters. Ordered map: iterated only
  /// for audits, and the key space is tiny (sites x links/vaults).
  std::map<std::pair<u8, u32>, u64> sequences_;

  Counter& c_crc_errors_;
  Counter& c_replays_;
  Counter& c_link_drops_;
  Counter& c_xbar_drops_;
  Counter& c_vault_stalls_;
  Counter& c_host_retries_;
  Counter& c_host_poisoned_;
  Counter& c_late_responses_;
  Counter& c_degrade_flushes_;
  Counter& c_token_stall_ticks_;
  Histogram& h_recovery_;  ///< Recovery latency, CPU cycles.
};

}  // namespace camps::fault
