// Results of one full-system run: the quantities every figure of the paper
// is built from.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "obs/epoch_sampler.hpp"
#include "obs/trace_recorder.hpp"
#include "sim/event_tags.hpp"

namespace camps::system {

/// Summary of one latency-breakdown histogram (all values in CPU cycles).
struct StageStats {
  u64 count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Count, mean and 50/95/99th percentiles of `h` (all zero when empty).
StageStats stage_stats(const Histogram& h);

/// Where a memory read's cycles went, stage by stage. Stages are measured
/// independently (each request contributes to every stage it crossed), so
/// the means do not sum exactly to total_read.
struct LatencyBreakdown {
  StageStats host_queue;    ///< Waiting for a free downstream link slot.
  StageStats link_down;     ///< Request serialization + flight.
  StageStats link_up;       ///< Response serialization + flight.
  StageStats vault_queue;   ///< Vault read/write queue wait.
  StageStats bank_service;  ///< Column command to data done.
  StageStats buffer_hit;    ///< Prefetch-buffer serves.
  StageStats total_read;    ///< Whole round trip (host submit -> deliver).
};

/// The breakdown's stages in report order, by name (the JSON key and the
/// summary label) and member. The producer's registry histogram is
/// "latency.<name>_cycles".
inline constexpr std::pair<const char*, StageStats LatencyBreakdown::*>
    kLatencyStages[] = {
        {"host_queue", &LatencyBreakdown::host_queue},
        {"link_down", &LatencyBreakdown::link_down},
        {"link_up", &LatencyBreakdown::link_up},
        {"vault_queue", &LatencyBreakdown::vault_queue},
        {"bank_service", &LatencyBreakdown::bank_service},
        {"buffer_hit", &LatencyBreakdown::buffer_hit},
        {"total_read", &LatencyBreakdown::total_read},
};

/// Fault-injection accounting for one run. `active` is false (and every
/// count zero) when the run had no FaultPlan; the JSON omits the whole
/// object then, keeping fault-free output byte-identical to builds that
/// predate the subsystem.
struct FaultSummary {
  bool active = false;
  u64 crc_errors = 0;       ///< Link transfers that failed CRC.
  u64 replays = 0;          ///< Packets re-delivered from a retry buffer.
  u64 link_drops = 0;       ///< Transfers lost beyond replay.
  u64 xbar_drops = 0;       ///< Crossbar grants dropped.
  u64 vault_stalls = 0;     ///< Vault responses delayed by a stall fault.
  u64 host_retries = 0;     ///< Timeout-driven re-issues at the host.
  u64 host_poisoned = 0;    ///< Reads completed poisoned (budget spent).
  u64 late_responses = 0;   ///< Responses that lost the race to a retry.
  u64 degrade_flushes = 0;  ///< Vault prefetch-state quiesce events.
  u64 token_stall_ticks = 0;  ///< Ticks serialization waited for credits.
  /// Recovery latency per recovered/poisoned fault (CPU cycles).
  StageStats recovery;

  /// Faults injected into the fabric (drops/stalls/CRC errors); every one
  /// must show up again as a replay, retry, or poisoned completion.
  u64 injected() const {
    return crc_errors + link_drops + xbar_drops + vault_stalls;
  }
};

/// FaultSummary's counters in report order, by name (the JSON key) and
/// member. The FaultPlan's registry counter is "fault.<name>".
inline constexpr std::pair<const char*, u64 FaultSummary::*>
    kFaultCounters[] = {
        {"crc_errors", &FaultSummary::crc_errors},
        {"replays", &FaultSummary::replays},
        {"link_drops", &FaultSummary::link_drops},
        {"xbar_drops", &FaultSummary::xbar_drops},
        {"vault_stalls", &FaultSummary::vault_stalls},
        {"host_retries", &FaultSummary::host_retries},
        {"host_poisoned", &FaultSummary::host_poisoned},
        {"late_responses", &FaultSummary::late_responses},
        {"degrade_flushes", &FaultSummary::degrade_flushes},
        {"token_stall_ticks", &FaultSummary::token_stall_ticks},
};

/// One core's numbers. `ipc` and `instructions` cover this core's own
/// measurement window only; `loads`, `stores` and `stall_cycles` count the
/// whole run, warm-up included.
struct CoreResult {
  double ipc = 0.0;          ///< IPC over the measurement window.
  u64 instructions = 0;      ///< Instructions inside the window.
  u64 loads = 0;             ///< Loads issued over the whole run.
  u64 stores = 0;            ///< Stores issued over the whole run.
  u64 stall_cycles = 0;      ///< Full-window stall cycles, whole run.
};

struct RunResults {
  std::string scheme;
  std::vector<CoreResult> cores;

  /// Geometric mean of per-core IPCs (the paper's Fig. 5 metric).
  double geomean_ipc = 0.0;

  /// Average memory access time seen by loads, in CPU cycles (Fig. 8).
  double amat_cycles = 0.0;
  /// Mean main-memory (HMC round-trip) latency, CPU cycles.
  double mem_latency_cycles = 0.0;

  // Row-buffer behaviour at the banks (Fig. 6).
  u64 row_hits = 0;
  u64 row_empties = 0;
  u64 row_conflicts = 0;
  double row_conflict_rate = 0.0;  ///< conflicts / all bank accesses.

  // Prefetching (Fig. 7).
  u64 prefetches = 0;
  double prefetch_accuracy = 0.0;  ///< useful rows / prefetched rows.
  u64 buffer_hits = 0;
  u64 buffer_misses = 0;
  double buffer_hit_rate = 0.0;

  // Energy (Fig. 9).
  double energy_pj = 0.0;

  // Serial-link utilization over the measurement window (0..1 per
  // direction, averaged over the links).
  double link_down_utilization = 0.0;
  double link_up_utilization = 0.0;
  u64 link_wakeups = 0;  ///< Power-management wakeups across all links.

  // Workload character.
  double mpki = 0.0;  ///< L3 misses per kilo-instruction, whole workload.
  u64 memory_reads = 0;
  u64 memory_writes = 0;

  Tick measure_span_ticks = 0;
  bool partial = false;  ///< True if the run hit the max_cycles bound.

  /// Per-stage latency breakdown (populated when the run had a registry).
  LatencyBreakdown latency;

  /// Fault-injection accounting (inactive unless the run carried a
  /// FaultPlan; see fault/fault_config.hpp).
  FaultSummary faults;

  // Request-lifecycle trace (empty unless SystemConfig::obs enabled it).
  // Shared so RunResults stays cheaply copyable in the sweep caches.
  std::shared_ptr<const std::vector<obs::Span>> trace_spans;
  u64 trace_recorded = 0;  ///< Spans recorded (>= trace_spans->size()).
  u64 trace_dropped = 0;   ///< Spans overwritten in the ring buffer.

  /// Epoch time-series (null unless SystemConfig::obs::epoch_ticks > 0).
  std::shared_ptr<const std::vector<obs::EpochSample>> epochs;

  // Host-side performance of the simulation itself (not simulated time).
  // events_executed and events_by_source are deterministic; wall_seconds is
  // not, so identical-run comparisons must exclude it.
  u64 events_executed = 0;     ///< Simulator events dispatched by the run.
  /// events_executed split by the layer that scheduled each event
  /// (indexed by sim::EventSource; sums to events_executed).
  sim::EventCounts events_by_source{};
  double wall_seconds = 0.0;   ///< Host wall-clock spent inside run().

  /// Multi-line human-readable summary.
  std::string summary() const;

  /// Machine-readable JSON object. Deterministic for a fixed run: the
  /// non-deterministic wall_seconds field is deliberately excluded, and
  /// everything else is byte-stable across --jobs values.
  std::string to_json(int indent = 0) const;
};

/// Geometric mean helper (0 if any element is <= 0 or the vector is empty).
double geometric_mean(const std::vector<double>& values);

}  // namespace camps::system
