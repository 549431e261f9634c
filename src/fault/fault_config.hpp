// Fault-injection configuration.
//
// The simulated HMC is perfectly reliable by default; a FaultConfig turns
// on a deterministic, seeded fault process (see fault_plan.hpp) that can
// corrupt serial-link transfers (CRC-fail -> retry-buffer replay), drop
// transfers outright (exceeds the link's replay capability), drop crossbar
// grants, and stall vault responses. Rates are per-packet probabilities;
// `targeted` faults hit an exact (site, unit, sequence) coordinate for
// reproducing a specific scenario in tests.
//
// Everything here is plain data so SystemConfig can embed it and the CLI /
// config file can populate it; the default-constructed config injects
// nothing and leaves every model path bit-identical to the fault-free
// simulator.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "sim/clock.hpp"

namespace camps::fault {

/// Where a fault decision is evaluated.
enum class Site : u8 {
  kLinkDownCrc = 0,   ///< Downstream serial-link CRC failure (replayed).
  kLinkUpCrc = 1,     ///< Upstream serial-link CRC failure (replayed).
  kLinkDownDrop = 2,  ///< Downstream transfer lost beyond replay.
  kLinkUpDrop = 3,    ///< Upstream transfer lost beyond replay.
  kXbarDrop = 4,      ///< Crossbar grant dropped (packet never forwarded).
  kVaultStall = 5,    ///< Vault response delayed by `vault_stall_ticks`.
};

/// An explicit one-shot fault: the `sequence`-th packet (0-based) through
/// `unit` (link index or vault id) at `site` faults regardless of rates.
struct TargetedFault {
  Site site = Site::kLinkDownCrc;
  u32 unit = 0;
  u64 sequence = 0;

  bool operator==(const TargetedFault&) const = default;
};

struct FaultConfig {
  // --- stochastic rates (per packet through the site, in [0,1]) ---------
  double link_crc_rate = 0.0;     ///< Both directions of every link.
  double link_drop_rate = 0.0;    ///< Unrecoverable link losses.
  double xbar_drop_rate = 0.0;    ///< Both crossbars.
  double vault_stall_rate = 0.0;  ///< Per read response leaving a vault.

  // --- recovery model ---------------------------------------------------
  /// Extra delay a stalled vault response suffers (default 200 ns).
  Tick vault_stall_ticks = 200 * sim::kTicksPerNs;
  /// Retry-buffer replay overhead beyond the re-serialization itself:
  /// models CRC detection at the far end plus the retry request coming
  /// back (default 8 ns).
  Tick link_retry_overhead_ticks = 8 * sim::kTicksPerNs;
  /// Host controller: re-issue a read whose response has not arrived after
  /// this long (default 8 us — far beyond any healthy round trip).
  Tick host_timeout_ticks = 8000 * sim::kTicksPerNs;
  /// Additional timeout per retry attempt (linear backoff, default 2 us).
  Tick host_backoff_ticks = 2000 * sim::kTicksPerNs;
  /// Re-issues before the host poisons the request (completes it with
  /// MemRequest::poisoned set instead of retrying forever).
  u32 host_retry_budget = 3;
  /// Faults observed in one vault before it degrades: the vault quiesces
  /// its prefetch state (buffer + scheme tables flushed). 0 disables.
  u32 vault_degrade_threshold = 0;
  /// Token-based link flow control: flit credits per link direction.
  /// 0 disables (unlimited credits — the fault-free model's behaviour).
  u32 link_tokens = 0;

  /// Seed of the fault process. Independent from the workload seed so the
  /// same traffic can be replayed under different fault patterns.
  u64 seed = 1;

  std::vector<TargetedFault> targeted;

  bool operator==(const FaultConfig&) const = default;

  /// True when any fault machinery must be active. Everything downstream
  /// (timeout events, token accounting, plan lookups) is gated on this so
  /// a disabled config is bit-identical to a build without the subsystem.
  bool enabled() const {
    return link_crc_rate > 0.0 || link_drop_rate > 0.0 ||
           xbar_drop_rate > 0.0 || vault_stall_rate > 0.0 ||
           link_tokens > 0 || !targeted.empty();
  }
};

}  // namespace camps::fault
