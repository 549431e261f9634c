// Per-bank DRAM state machine with command-legality checks.
//
// The bank tracks its row-buffer state and the earliest cycle at which each
// command class becomes legal. All times are DRAM command-clock cycles; the
// vault controller converts to global ticks. The bank itself never
// schedules events — it is a passive timed resource the scheduler queries.
#pragma once

#include <optional>

#include "check/audit.hpp"
#include "common/types.hpp"
#include "dram/timing.hpp"
#include "obs/trace_recorder.hpp"
#include "sim/clock.hpp"

namespace camps::dram {

enum class BankState : u8 {
  kPrecharged,   ///< No row open; ACT legal once tRP satisfied.
  kActivating,   ///< ACT issued; columns legal at act_cycle + tRCD.
  kActive,       ///< Row open; RD/WR/row-fetch/PRE legal per timing.
  kPrecharging,  ///< PRE issued; ACT legal at pre_cycle + tRP.
  kRefreshing,   ///< All-bank refresh in progress until tRFC elapses.
};

/// Classification of a demand access against the current row-buffer state,
/// following the paper's terminology: a *conflict* is an access to row B
/// while a different row A is open (requires PRE + ACT); a *miss* (or
/// "empty" access) finds the bank precharged; a *hit* finds its row open.
enum class RowBufferOutcome : u8 { kHit, kEmpty, kConflict };

class Bank final {
 public:
  explicit Bank(const TimingParams& timing) : t_(&timing) {}

  /// Arms span recording for this bank's commands. `track` is the bank's
  /// global lane id (vault * banks_per_vault + bank). The bank records ACT,
  /// PRE, column-service, and row-fetch windows; `trace_id` on the command
  /// methods ties a span back to the demand request that caused it.
  void attach_trace(obs::TraceRecorder* trace, u32 track) {
    trace_ = trace;
    trace_track_ = track;
  }

  /// Current state once all transitions up to `cycle` have settled.
  BankState state(u64 cycle) const;

  /// The open (or opening) row, if any.
  std::optional<RowId> open_row(u64 cycle) const;

  /// Classifies a demand access to `row` at `cycle`.
  RowBufferOutcome classify(u64 cycle, RowId row) const;

  // --- Earliest-legal-cycle queries (all >= the argument) -------------
  u64 earliest_activate(u64 cycle) const;
  u64 earliest_column(u64 cycle) const;   ///< RD/WR/row-fetch on open row.
  u64 earliest_precharge(u64 cycle) const;

  // --- Commands. Each CAMPS_ASSERTs legality at `cycle`. --------------
  void activate(u64 cycle, RowId row, u64 trace_id = 0);
  /// Reads one line; returns the cycle the last data beat arrives.
  u64 read(u64 cycle, u64 trace_id = 0);
  /// Writes one line; returns the cycle write data finishes (gates tWR).
  u64 write(u64 cycle, u64 trace_id = 0);
  /// Streams the whole open row to the prefetch buffer; returns completion.
  u64 fetch_row(u64 cycle, u64 trace_id = 0);
  void precharge(u64 cycle);
  /// Enters refresh; bank must be precharged. Busy until cycle + tRFC.
  void refresh(u64 cycle);

  // --- Event counts consumed by the energy model / stats --------------
  u64 activate_count() const { return n_act_; }
  u64 precharge_count() const { return n_pre_; }
  u64 read_count() const { return n_rd_; }
  u64 write_count() const { return n_wr_; }
  u64 row_fetch_count() const { return n_rowfetch_; }

  /// Invariants over the command-legality bookkeeping: the raw state is a
  /// legal enum value, transient states carry a consistent completion
  /// cycle, timing-window anchors only exist after the commands that set
  /// them, and the command counters respect the FSM's legal sequences
  /// (e.g. every PRE follows an ACT).
  void audit(check::AuditReporter& reporter) const;

 private:
  friend struct check::TestCorruptor;

  /// Records [begin, end) DRAM cycles as a tick span; one inlined branch
  /// when tracing is off (this sits on the per-DRAM-command hot path).
  void trace_span(obs::Stage stage, u64 id, u64 begin_cycle, u64 end_cycle) {
    if (trace_ == nullptr) return;
    trace_->record(stage, trace_track_, id,
                   begin_cycle * sim::kDramTicksPerCycle,
                   end_cycle * sim::kDramTicksPerCycle);
  }

  const TimingParams* t_;
  obs::TraceRecorder* trace_ = nullptr;
  u32 trace_track_ = 0;

  BankState raw_state_ = BankState::kPrecharged;
  RowId row_ = 0;
  u64 ready_at_ = 0;       ///< Cycle the current transient completes.
  u64 act_at_ = 0;         ///< Cycle of the last ACT (tRAS anchor).
  u64 last_col_at_ = 0;    ///< Last RD/WR/row-fetch issue (tCCD anchor).
  u64 rd_pre_gate_ = 0;    ///< Earliest PRE due to reads (tRTP).
  u64 wr_pre_gate_ = 0;    ///< Earliest PRE due to writes (tWR).
  bool any_col_ = false;

  u64 n_act_ = 0, n_pre_ = 0, n_rd_ = 0, n_wr_ = 0, n_rowfetch_ = 0;

  void settle(u64 cycle);
  u64 column_issue_cycle(u64 cycle) const;
};

static_assert(check::Auditable<Bank>);

}  // namespace camps::dram
