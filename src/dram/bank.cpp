#include "dram/bank.hpp"

#include <algorithm>
#include <optional>
#include <string>

#include "common/assert.hpp"
#include "sim/clock.hpp"

namespace camps::dram {

BankState Bank::state(u64 cycle) const {
  // Transients settle by themselves once their completion cycle passes.
  if (raw_state_ == BankState::kActivating && cycle >= ready_at_) {
    return BankState::kActive;
  }
  if ((raw_state_ == BankState::kPrecharging ||
       raw_state_ == BankState::kRefreshing) &&
      cycle >= ready_at_) {
    return BankState::kPrecharged;
  }
  return raw_state_;
}

void Bank::settle(u64 cycle) {
  const BankState s = state(cycle);
  if (s != raw_state_) raw_state_ = s;
}

std::optional<RowId> Bank::open_row(u64 cycle) const {
  const BankState s = state(cycle);
  if (s == BankState::kActive || s == BankState::kActivating) return row_;
  return std::nullopt;
}

RowBufferOutcome Bank::classify(u64 cycle, RowId row) const {
  const auto open = open_row(cycle);
  if (!open) return RowBufferOutcome::kEmpty;
  return *open == row ? RowBufferOutcome::kHit : RowBufferOutcome::kConflict;
}

u64 Bank::earliest_activate(u64 cycle) const {
  switch (raw_state_) {
    case BankState::kPrecharged:
      return cycle;
    case BankState::kPrecharging:
    case BankState::kRefreshing:
      return std::max(cycle, ready_at_);
    default:
      // Must precharge first; not directly activatable.
      return kTickNever;
  }
}

u64 Bank::column_issue_cycle(u64 cycle) const {
  u64 c = std::max(cycle, act_at_ + t_->tRCD);
  if (any_col_) c = std::max(c, last_col_at_ + t_->tCCD);
  return c;
}

u64 Bank::earliest_column(u64 cycle) const {
  const BankState s = state(cycle);
  if (s != BankState::kActive && s != BankState::kActivating) {
    return kTickNever;
  }
  return column_issue_cycle(cycle);
}

u64 Bank::earliest_precharge(u64 cycle) const {
  const BankState s = state(cycle);
  if (s != BankState::kActive && s != BankState::kActivating) {
    return kTickNever;
  }
  u64 c = std::max(cycle, act_at_ + t_->tRAS);
  c = std::max({c, rd_pre_gate_, wr_pre_gate_});
  return c;
}

void Bank::activate(u64 cycle, RowId row, u64 trace_id) {
  settle(cycle);
  CAMPS_ASSERT_MSG(raw_state_ == BankState::kPrecharged,
                   "ACT issued to a non-precharged bank");
  CAMPS_ASSERT(cycle >= earliest_activate(cycle));
  raw_state_ = BankState::kActivating;
  row_ = row;
  act_at_ = cycle;
  ready_at_ = cycle + t_->tRCD;
  any_col_ = false;
  rd_pre_gate_ = wr_pre_gate_ = 0;
  ++n_act_;
  trace_span(obs::Stage::kBankAct, trace_id, cycle, ready_at_);
}

u64 Bank::read(u64 cycle, u64 trace_id) {
  settle(cycle);
  CAMPS_ASSERT_MSG(state(cycle) == BankState::kActive ||
                       state(cycle) == BankState::kActivating,
                   "RD issued with no row open");
  CAMPS_ASSERT(cycle >= column_issue_cycle(cycle));
  last_col_at_ = cycle;
  any_col_ = true;
  rd_pre_gate_ = std::max(rd_pre_gate_, cycle + t_->tRTP);
  ++n_rd_;
  const u64 done = cycle + t_->tCL + t_->tBURST;
  trace_span(obs::Stage::kBankService, trace_id, cycle, done);
  return done;
}

u64 Bank::write(u64 cycle, u64 trace_id) {
  settle(cycle);
  CAMPS_ASSERT_MSG(state(cycle) == BankState::kActive ||
                       state(cycle) == BankState::kActivating,
                   "WR issued with no row open");
  CAMPS_ASSERT(cycle >= column_issue_cycle(cycle));
  last_col_at_ = cycle;
  any_col_ = true;
  const u64 data_end = cycle + t_->tWL + t_->tBURST;
  wr_pre_gate_ = std::max(wr_pre_gate_, data_end + t_->tWR);
  ++n_wr_;
  trace_span(obs::Stage::kBankService, trace_id, cycle, data_end);
  return data_end;
}

u64 Bank::fetch_row(u64 cycle, u64 trace_id) {
  settle(cycle);
  CAMPS_ASSERT_MSG(state(cycle) == BankState::kActive ||
                       state(cycle) == BankState::kActivating,
                   "row fetch issued with no row open");
  CAMPS_ASSERT(cycle >= column_issue_cycle(cycle));
  // First data appears after the CAS latency, then the row streams over
  // the wide TSV bus for tROWFETCH cycles.
  const u64 done = cycle + t_->tCL + t_->tROWFETCH;
  // The copy occupies the column path until it completes.
  last_col_at_ = done - t_->tCCD < cycle ? cycle : done - t_->tCCD;
  any_col_ = true;
  rd_pre_gate_ = std::max(rd_pre_gate_, done);
  ++n_rowfetch_;
  trace_span(obs::Stage::kRowFetch, trace_id, cycle, done);
  return done;
}

void Bank::precharge(u64 cycle) {
  settle(cycle);
  CAMPS_ASSERT_MSG(raw_state_ == BankState::kActive ||
                       raw_state_ == BankState::kActivating,
                   "PRE issued with no row open");
  CAMPS_ASSERT(cycle >= earliest_precharge(cycle));
  raw_state_ = BankState::kPrecharging;
  ready_at_ = cycle + t_->tRP;
  ++n_pre_;
  trace_span(obs::Stage::kBankPre, /*id=*/0, cycle, ready_at_);
}

void Bank::refresh(u64 cycle) {
  settle(cycle);
  CAMPS_ASSERT_MSG(raw_state_ == BankState::kPrecharged,
                   "refresh requires a precharged bank");
  CAMPS_ASSERT(cycle >= ready_at_ || raw_state_ == BankState::kPrecharged);
  raw_state_ = BankState::kRefreshing;
  ready_at_ = cycle + t_->tRFC;
}

}  // namespace camps::dram
