// Event-count energy accounting for the HMC device.
//
// Figure 9 reports *normalized* energy, so we need relative magnitudes, not
// silicon-calibrated absolutes. Per-event energies below follow the usual
// DRAM ballpark (activation/precharge dominate; a full 1 KB row move over
// the TSVs costs roughly what 16 line transfers cost, minus the per-command
// overheads; SerDes links burn energy per flit). The paper's energy story —
// BASE loses by moving whole rows on every miss and replacing them often —
// emerges from exactly these ratios.
#pragma once

#include <array>
#include <string>

#include "common/types.hpp"

namespace camps::energy {

enum class EnergyEvent : u8 {
  kActivate = 0,
  kPrecharge,
  kReadLine,
  kWriteLine,
  kRowFetch,      ///< 1 KB row copied bank -> prefetch buffer over TSVs.
  kRowWriteback,  ///< Dirty row copied prefetch buffer -> bank.
  kBufferAccess,  ///< Prefetch-buffer hit served to the host.
  kRefresh,       ///< All-bank refresh of one vault.
  kLinkFlit,      ///< One 16 B flit through a serial link (both SerDes).
  kCount_,
};

constexpr size_t kEnergyEventCount = static_cast<size_t>(EnergyEvent::kCount_);

const char* to_string(EnergyEvent event);

/// Per-event energies in picojoules, plus static power.
struct EnergyParams {
  std::array<double, kEnergyEventCount> pj_per_event{
      15.0,   // activate
      10.0,   // precharge
      13.0,   // read line (64 B column access + internal transfer)
      13.0,   // write line
      110.0,  // row fetch (1 KB over wide TSV bus)
      110.0,  // row writeback
      2.0,    // buffer access (SRAM read in logic layer)
      350.0,  // refresh (all banks of one vault)
      6.0,    // link flit (16 B across SerDes pair)
  };
  /// Background/static power of the whole cube, in watts.
  double background_watts = 0.5;

  bool operator==(const EnergyParams&) const = default;
};

/// Accumulates event counts; converts to energy on demand.
class EnergyModel {
 public:
  explicit EnergyModel(const EnergyParams& params = {}) : p_(params) {}

  void add(EnergyEvent event, u64 n = 1) {
    counts_[static_cast<size_t>(event)] += n;
  }
  u64 count(EnergyEvent event) const {
    return counts_[static_cast<size_t>(event)];
  }

  /// Dynamic energy from all recorded events, in picojoules.
  double dynamic_pj() const;

  /// Background energy for a run of `ns` nanoseconds, in picojoules.
  double background_pj(double ns) const { return p_.background_watts * ns * 1e3; }

  /// Total = dynamic + background for the given wall-clock duration.
  double total_pj(double ns) const { return dynamic_pj() + background_pj(ns); }

  /// Multi-line human-readable breakdown (for stats dumps).
  std::string breakdown() const;

  void reset() { counts_.fill(0); }

 private:
  EnergyParams p_;
  std::array<u64, kEnergyEventCount> counts_{};
};

}  // namespace camps::energy
