// DRAM timing parameters, expressed in DRAM command-clock cycles (800 MHz).
//
// Table I of the paper fixes tRCD = tRP = tCL = 11 cycles (DDR3-1600); the
// remaining constraints are standard DDR3-1600 values and are needed for a
// legal command stream (tRAS keeps a row open long enough, tWR/tRTP gate
// precharge after column ops, tCCD serializes the vault data TSV bus).
#pragma once

#include "common/types.hpp"

namespace camps::dram {

struct TimingParams {
  u64 tRCD = 11;   ///< ACT -> first column command.
  u64 tRP = 11;    ///< PRE -> next ACT.
  u64 tCL = 11;    ///< RD -> first data beat.
  u64 tRAS = 28;   ///< ACT -> PRE (minimum row-open time).
  u64 tWL = 8;     ///< WR -> first data beat (CWL).
  u64 tBURST = 4;  ///< Data beats for one 64 B line (BL8 over the TSV bus).
  u64 tCCD = 4;    ///< Column command to column command (same bank group).
  u64 tRTP = 6;    ///< RD -> PRE.
  u64 tWR = 12;    ///< End of write data -> PRE (write recovery).
  u64 tRRD = 5;    ///< ACT -> ACT, different banks in the same vault.
  u64 tFAW = 24;   ///< Rolling window: at most four ACTs per vault per tFAW.
  u64 tRFC = 128;  ///< Refresh cycle time (all banks busy).
  u64 tREFI = 6240;///< Refresh interval: 7.8 us at 800 MHz.

  /// Cycles to stream a whole 1 KB row from the sense amps into the vault
  /// prefetch buffer over the wide TSV bus (after tCL). 32 B per command
  /// clock = 32 cycles for 1 KB — twice the per-line column bandwidth,
  /// reflecting the TSV width advantage Section 2.4 of the paper relies on
  /// without making whole-row copies free.
  u64 tROWFETCH = 32;

  /// Returns true when the parameter set is internally consistent (e.g. a
  /// row can actually be read within tRAS).
  bool valid() const;

  bool operator==(const TimingParams&) const = default;
};

/// DDR3-1600-like defaults matching Table I.
TimingParams default_timing();

}  // namespace camps::dram
