// Host-side HMC controller.
//
// Sits between the L3 and the cube's serial links: assigns request ids,
// tracks outstanding reads, invokes per-request completion callbacks, and
// measures main-memory access latency (request submission to response
// delivery) — the raw material of the paper's AMAT metric (Fig. 8).
//
// Fault recovery: when the device carries a FaultPlan, every read arms a
// timeout event; its response cancels the event, so answered reads leave
// nothing in the event queue. A read that times out is re-issued under a
// fresh id after a linear backoff; one that exhausts the retry budget
// completes poisoned (MemRequest::poisoned) so the core side can account
// the loss instead of hanging. Responses to superseded ids are counted, not
// delivered. None of this machinery exists at runtime when faults are
// disabled — no timer events, no extra state — preserving byte-identical
// fault-free runs.
#pragma once

#include <functional>
#include <unordered_map>

#include "hmc/hmc_device.hpp"

namespace camps::hmc {

class HostController final {
 public:
  using CompletionFn = std::function<void(const MemRequest&)>;

  /// `stats` must be non-null: every latency and fault statistic lives in
  /// it.
  HostController(sim::Simulator& sim, const HmcConfig& config,
                 prefetch::SchemeKind scheme,
                 const prefetch::SchemeParams& params, StatRegistry* stats,
                 obs::TraceRecorder* trace = nullptr);

  /// Issues a read; `on_done` fires when the response returns (or when the
  /// request is poisoned after exhausting the retry budget — check
  /// MemRequest::poisoned).
  u64 read(Addr addr, CoreId core, CompletionFn on_done);

  /// Issues a posted write (no completion callback).
  u64 write(Addr addr, CoreId core);

  bool idle() const { return outstanding_.empty() && device_.idle(); }

  HmcDevice& device() { return device_; }
  const HmcDevice& device() const { return device_; }

  // --- latency statistics ----------------------------------------------
  u64 reads_issued() const { return reads_; }
  u64 writes_issued() const { return writes_; }
  u64 reads_completed() const { return h_lat_total_read_.count(); }
  /// Mean read latency in CPU cycles (submission -> delivery).
  double mean_read_latency_cycles() const { return h_lat_total_read_.mean(); }
  const Histogram& latency_histogram() const { return h_lat_total_read_; }

  /// Zeroes latency statistics and the device's counters (outstanding
  /// requests are unaffected); marks the warmup boundary. The fault.*
  /// counters reset with the registry.
  void reset_stats();

  /// Audits the id/outstanding bookkeeping, then the whole device.
  void audit(check::AuditReporter& reporter) const;

 private:
  friend struct check::TestCorruptor;

  /// One outstanding read. `attempt` counts issues of this logical request
  /// (1 = original); each retry re-keys the entry under a fresh id so a
  /// late response to a superseded id is identifiable instead of being
  /// mistaken for the retry's answer.
  struct Pending {
    CompletionFn on_done;
    Addr addr = 0;
    CoreId core = 0;
    Tick first_created = 0;  ///< Original issue; latency baseline.
    u32 attempt = 1;
    sim::EventHandle timer;  ///< The timeout event; names nothing if none.
  };

  void deliver(const MemRequest& request);
  void arm_timeout(u64 id, Tick delay);
  void on_timeout(u64 id);
  /// Re-submits `pending` under a fresh id after `backoff` ticks.
  void reissue(Pending pending, Tick backoff);

  sim::Simulator& sim_;
  HmcDevice device_;
  obs::TraceRecorder* trace_ = nullptr;
  // Keyed lookup/erase only — never iterated for ordered output, so the
  // unspecified iteration order cannot leak into results.
  std::unordered_map<u64, Pending> outstanding_;  // camps-lint: allow(determinism)
  /// Round-trip latency of every completed read, CPU cycles.
  Histogram& h_lat_total_read_;
  u64 next_id_ = 1;
  u64 reads_ = 0, writes_ = 0;
};

static_assert(check::Auditable<HostController>);

}  // namespace camps::hmc
