#include "hmc/vault_controller.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "prefetch/scheme_camps.hpp"

namespace camps::hmc {

using dram::RowBufferOutcome;
using energy::EnergyEvent;

namespace {

/// Registry name of one of vault `id`'s own statistics.
std::string stat_name(VaultId id, const char* stat) {
  return "vault" + std::to_string(id) + "." + stat;
}

}  // namespace

VaultController::VaultController(
    sim::Simulator& sim, VaultId id, const HmcGeometry& geometry,
    const VaultConfig& config, std::unique_ptr<prefetch::PrefetchScheme> scheme,
    energy::EnergyModel* energy, StatRegistry& stats, RespondFn respond,
    obs::TraceRecorder* trace)
    : sim_(sim),
      id_(id),
      geom_(geometry),
      cfg_(config),
      banks_(),
      buffer_(config.buffer, static_cast<u32>(geometry.lines_per_row()),
              scheme->make_replacement()),
      scheme_(std::move(scheme)),
      refresh_(cfg_.timing, cfg_.refresh_enabled),
      energy_(energy),
      respond_(std::move(respond)),
      c_rb_hit_(stats.counter(stat_name(id, "rb_hit"))),
      c_rb_empty_(stats.counter(stat_name(id, "rb_empty"))),
      c_rb_conflict_(stats.counter(stat_name(id, "rb_conflict"))),
      c_buf_hit_(stats.counter(stat_name(id, "buffer_hit"))),
      c_prefetch_(stats.counter(stat_name(id, "prefetch_issued"))),
      h_queue_wait_(stats.histogram(stat_name(id, "queue_wait_cycles"))),
      // Shared across vaults: the registry hands back the same histogram
      // for every vault, so these aggregate device-wide.
      h_lat_vault_queue_(stats.histogram("latency.vault_queue_cycles")),
      h_lat_bank_service_(stats.histogram("latency.bank_service_cycles")),
      h_lat_buffer_hit_(stats.histogram("latency.buffer_hit_cycles")),
      trace_(trace) {
  const u32 banks = geom_.banks_per_vault;
  CAMPS_ASSERT(banks > 0 && banks <= 32);  // scheduler bank bitmask
  CAMPS_ASSERT(cfg_.read_queue > 0 && cfg_.write_queue > 0);
  CAMPS_ASSERT(cfg_.write_drain_low < cfg_.write_drain_high);
  CAMPS_ASSERT(cfg_.write_drain_high <= cfg_.write_queue);
  banks_.reserve(banks);
  for (u32 b = 0; b < banks; ++b) banks_.emplace_back(cfg_.timing);
  open_row_refs_.resize(banks);
  buffer_hit_ticks_ = cfg_.buffer.hit_latency * sim::kCpuTicksPerCycle;
  for (u32 b = 0; b < banks; ++b) {
    banks_[b].attach_trace(trace_, id_ * banks + b);
  }
  buffer_.attach_trace(trace_, id_, sim::kDramTicksPerCycle);
}

void VaultController::reset_stats() {
  c_rb_hit_.reset();
  c_rb_empty_.reset();
  c_rb_conflict_.reset();
  c_buf_hit_.reset();
  c_prefetch_.reset();
  h_queue_wait_.reset();
  h_lat_vault_queue_.reset();
  h_lat_bank_service_.reset();
  h_lat_buffer_hit_.reset();
  n_reads_ = n_writes_ = 0;
  n_prefetch_dropped_ = 0;
  n_degrade_flushes_ = 0;
  buffer_.reset_stats();
}

void VaultController::degrade_flush() {
  // Drop prefetch work that has not yet touched a bank. Actions whose row
  // copy is already issued keep running: their complete_fetch events are
  // in flight and will insert into the (now empty) buffer harmlessly.
  for (auto it = actions_.begin(); it != actions_.end();) {
    if (!it->fetch_issued) {
      ++n_prefetch_dropped_;
      it = actions_.erase(it);
    } else {
      ++it;
    }
  }
  // Evict everything with the normal bookkeeping so usefulness accounting
  // and dirty writebacks stay consistent with ordinary evictions.
  for (const prefetch::EvictedRow& victim : buffer_.flush()) {
    scheme_->on_prefetch_evicted(victim.id, victim.referenced);
    if (victim.dirty && energy_ != nullptr) {
      energy_->add(EnergyEvent::kRowWriteback);
    }
  }
  scheme_->on_fault_flush();
  ++n_degrade_flushes_;
}

void VaultController::receive(const MemRequest& request,
                              const DecodedAddr& addr, Tick at) {
  CAMPS_ASSERT(addr.vault == id_);
  CAMPS_ASSERT(at >= sim_.now());
  // The arrived entries must stay a prefix of the FIFO.
  CAMPS_ASSERT_MSG(ingress_.empty() || ingress_.back().arrival <= at,
                   "arrivals at a vault out of tick order");
  QueueEntry entry;
  entry.req = request;
  entry.bank = addr.bank;
  entry.row = addr.row;
  entry.column = addr.column;
  entry.arrival = at;
  ingress_.push_back(entry);
  schedule_wake_at_cycle(edge_cycle(at));
}

bool VaultController::idle() const {
  return !ingress_arrived() && rdq_.empty() && wrq_.empty() &&
         actions_.empty() && inflight_ == 0;
}

void VaultController::schedule_wake_at_cycle(u64 cycle) {
  Tick when = tick_of(cycle);
  if (when < sim_.now()) when = sim::dram_clock().next_edge(sim_.now());
  // A pending wake may be far in the future (idle vault waiting for its
  // refresh deadline); an earlier arm moves it. Its place within a tick
  // depends only on (tick, vault id), so moving it reorders nothing.
  if (sim_.queue().pending(wake_)) {
    if (sim_.queue().time_of(wake_) <= when) return;
    sim_.cancel(wake_);
  }
  wake_ = sim_.schedule_late_at(when, sim::late_unit::vault(id_),
                                [this] { wake(); }, sim::EventSource::kVault);
}

u64 VaultController::next_action_cycle(u64 cycle) {
  // The earliest cycle after `cycle` at which a wake could change anything:
  // each phase reports its own first actionable cycle, from the same gates
  // it tests when it acts, so every cycle skipped before it would be a
  // no-op wake (docs/simulation-model.md gives the argument). The state
  // those gates read changes only at a wake that acts, at an arrival (the
  // first edge at or after it is considered here) or at a row fill
  // (complete_fetch arms its own tick).
  const u64 from = cycle + 1;
  if (ingress_arrived()) return from;
  u64 next =
      ingress_.empty() ? kTickNever : edge_cycle(ingress_.front().arrival);
  next = std::min(next, refresh_step(from, /*act=*/false));
  if (!refresh_draining_) {
    next = std::min({next, issue_demand_column(from, /*act=*/false),
                     issue_prefetch(from, /*act=*/false),
                     advance_demand_bank(from, /*act=*/false)});
  }
  return std::max(next, from);
}

void VaultController::wake() {
  const u64 cycle = cycle_of(sim_.now());
  admit_ingress(cycle);
  const bool was_draining = refresh_draining_;
  // Priority: refresh integrity, then demand data (row hits), then pending
  // row copies (so a CAMPS fetch+precharge lands before another demand
  // reopens the bank), then demand PRE/ACT progress.
  bool used_slot = refresh_step(cycle, true) == cycle;
  // While draining for refresh, nothing else may issue — demand ACTs would
  // keep reopening banks and the drain would never converge.
  if (!refresh_draining_) {
    // Aged prefetch work jumps ahead of demand columns once: a copy that
    // lands after its stream has moved on is pure waste.
    bool aged = false;
    for (const auto& action : actions_) {
      if (!action.fetch_issued &&
          cycle >= action.created_cycle + kPrefetchAgingCycles) {
        aged = true;
        break;
      }
    }
    if (aged && !used_slot) used_slot = issue_prefetch(cycle, true) == cycle;
    if (!used_slot) used_slot = issue_demand_column(cycle, true) == cycle;
    if (!used_slot) used_slot = issue_prefetch(cycle, true) == cycle;
    if (!used_slot) advance_demand_bank(cycle, true);
  }
  const u64 next = next_action_cycle(cycle);
  if (next != kTickNever) schedule_wake_at_cycle(next);
  if (refresh_draining_ && !was_draining && drain_hook_) drain_hook_(*this);
}

u64 VaultController::open_gate(const dram::Bank& bank, u64 cycle) const {
  if (bank.open_row(cycle)) return bank.earliest_precharge(cycle);
  return std::max({bank.earliest_activate(cycle), next_act_cycle_,
                   act_window_[act_window_pos_]});
}

bool VaultController::serve_from_buffer(const QueueEntry& entry, u64 cycle,
                                        bool count_miss) {
  const BankRow key{entry.bank, entry.row};
  const auto stamp = buffer_.insert_stamp(key);
  if (!stamp) {
    if (count_miss) buffer_.count_miss();
    return false;
  }
  // A request that was already waiting when the row landed is a demand the
  // copy happened to serve, not something the prefetch anticipated: it
  // counts toward utilization but not usefulness.
  const bool predates_insert = cycle_of(entry.arrival) < *stamp;
  buffer_.access(key, entry.column, entry.req.type,
                 /*fill_touch=*/predates_insert);
  c_buf_hit_.inc();
  if (energy_ != nullptr) energy_->add(EnergyEvent::kBufferAccess);
  h_lat_buffer_hit_.sample(cfg_.buffer.hit_latency);
  h_lat_vault_queue_.sample(
      cpu_cycles_of_dram(cycle - std::min(cycle, cycle_of(entry.arrival))));
  if (trace_ != nullptr) {
    trace_->record(obs::Stage::kBufferHit, id_, entry.req.id, tick_of(cycle),
                   tick_of(cycle) + buffer_hit_ticks_);
  }
  prefetch::AccessContext ctx{.bank = entry.bank,
                              .row = entry.row,
                              .line = entry.column,
                              .type = entry.req.type,
                              .outcome = RowBufferOutcome::kHit,
                              .queued_same_row = 0,
                              .dram_cycle = cycle};
  scheme_->on_buffer_hit(ctx);
  if (entry.req.type == AccessType::kRead) {
    respond_(entry.req, tick_of(cycle) + buffer_hit_ticks_);
  }
  return true;
}

void VaultController::admit_ingress(u64 cycle) {
  while (ingress_arrived()) {
    QueueEntry& entry = ingress_.front();
    if (serve_from_buffer(entry, cycle, !entry.miss_counted)) {
      ingress_.pop_front();
      continue;
    }
    entry.miss_counted = true;
    auto& queue = entry.req.type == AccessType::kRead ? rdq_ : wrq_;
    const u32 limit = entry.req.type == AccessType::kRead ? cfg_.read_queue
                                                          : cfg_.write_queue;
    if (queue.size() >= limit) break;  // backpressure: wait in ingress
    queue.push_back(entry);
    ingress_.pop_front();
  }
}

u64 VaultController::refresh_step(u64 cycle, bool act) {
  if (!refresh_draining_) {
    const u64 due =
        std::max({cycle, refresh_.next_due(), refresh_.busy_until()});
    if (due != cycle || !act) return due;
    refresh_draining_ = true;
  }
  // Close the banks in index order, one PRE per cycle, waiting on the first
  // one not precharged: an open (or opening) bank until its PRE gate, a
  // precharging one until its tRP ends.
  for (auto& bank : banks_) {
    u64 gate;
    if (bank.open_row(cycle)) {
      gate = bank.earliest_precharge(cycle);
    } else if (bank.state(cycle) == dram::BankState::kPrecharging) {
      gate = bank.earliest_activate(cycle);
    } else {
      continue;
    }
    if (act && gate == cycle) precharge(bank, cycle);
    return gate;
  }

  // All banks precharged: launch the all-bank refresh.
  if (act) {
    for (auto& bank : banks_) bank.refresh(cycle);
    refresh_.start(cycle);
    if (energy_ != nullptr) energy_->add(EnergyEvent::kRefresh);
    refresh_draining_ = false;
  }
  return cycle;
}

u32 VaultController::queued_same_row(const QueueEntry& entry) const {
  u32 count = 0;
  for (const auto& other : rdq_) {
    if (other.req.id == entry.req.id) continue;
    if (other.bank == entry.bank && other.row == entry.row) ++count;
  }
  return count;
}

void VaultController::classify_if_new(QueueEntry& entry, u64 cycle) {
  if (entry.started) return;
  entry.started = true;
  entry.outcome = banks_[entry.bank].classify(cycle, entry.row);
  switch (entry.outcome) {
    case RowBufferOutcome::kHit:
      c_rb_hit_.inc();
      break;
    case RowBufferOutcome::kEmpty:
      c_rb_empty_.inc();
      break;
    case RowBufferOutcome::kConflict:
      c_rb_conflict_.inc();
      break;
  }
}

void VaultController::apply_decision(
    const prefetch::PrefetchDecision& decision, const QueueEntry& entry) {
  if (!decision.any()) return;
  auto enqueue_action = [this](BankId bank, RowId row, bool precharge_after) {
    const BankRow key{bank, row};
    if (buffer_.contains(key)) {
      ++n_prefetch_dropped_;
      return;
    }
    // Duplicate suppression against already-queued actions.
    for (const auto& action : actions_) {
      if (action.bank == bank && action.row == row) {
        ++n_prefetch_dropped_;
        return;
      }
    }
    actions_.push_back(PfAction{.bank = bank,
                                .row = row,
                                .precharge_after = precharge_after,
                                .fetch_issued = false,
                                .fetch_done_cycle = 0,
                                .created_cycle = cycle_of(sim_.now())});
  };
  if (decision.fetch_row) {
    enqueue_action(entry.bank, entry.row, decision.precharge_after);
  }
  for (RowId extra : decision.extra_rows) {
    enqueue_action(entry.bank, extra, false);
  }
}

void VaultController::note_row_reference(BankId bank, RowId row,
                                         LineId line) {
  auto& refs = open_row_refs_[bank];
  if (refs.row != row) refs = OpenRowRefs{row, 0};
  refs.bitmap |= u64{1} << line;
}

u64 VaultController::row_reference_bitmap(BankId bank, RowId row) const {
  const auto& refs = open_row_refs_[bank];
  return refs.row == row ? refs.bitmap : 0;
}

void VaultController::precharge(dram::Bank& bank, u64 cycle) {
  bank.precharge(cycle);
  if (energy_ != nullptr) energy_->add(EnergyEvent::kPrecharge);
}

void VaultController::activate(dram::Bank& bank, u64 cycle, RowId row,
                               u64 trace_id) {
  bank.activate(cycle, row, trace_id);
  record_act(cycle);
  if (energy_ != nullptr) energy_->add(EnergyEvent::kActivate);
}

u64 VaultController::fetch_row(BankId bank, RowId row, u64 cycle,
                               const QueueEntry* demand) {
  // A copy rides the wide internal TSVs (the paper's premise, Section 2.4):
  // it occupies the bank, not the vault's demand data bus.
  const u64 done =
      banks_[bank].fetch_row(cycle, demand != nullptr ? demand->req.id : 0);
  if (energy_ != nullptr) energy_->add(EnergyEvent::kRowFetch);
  // The lines already served while the row sat in the row buffer seed its
  // utilization, so Section 3.2's full-utilization test sees its whole life.
  const u64 seed = row_reference_bitmap(bank, row);
  const bool serves = demand != nullptr;
  const LineId line = serves ? demand->column : 0;
  const AccessType type = serves ? demand->req.type : AccessType::kRead;
  sim_.schedule_at(tick_of(done),
                   [this, bank, row, seed, cycle, serves, line, type] {
    complete_fetch(bank, row, seed, cycle);
    // The demanded line is consumed out of the freshly landed row; it was
    // demanded, not prefetched, so it does not count toward usefulness.
    if (serves) {
      buffer_.access(BankRow{bank, row}, line, type, /*fill_touch=*/true);
    }
  }, sim::EventSource::kVault);
  return done;
}

void VaultController::respond_at(const MemRequest& req, Tick ready) {
  ++n_reads_;
  ++inflight_;
  sim_.schedule_at(ready, [this, req, ready] {
    --inflight_;
    respond_(req, ready);
  }, sim::EventSource::kVault);
}

bool VaultController::row_demanded(BankId bank, RowId row) const {
  return std::any_of(rdq_.begin(), rdq_.end(), [&](const QueueEntry& e) {
    return e.bank == bank && e.row == row;
  });
}

void VaultController::serve_via_fetch(const QueueEntry& entry, u64 cycle,
                                      bool precharge_after) {
  note_row_reference(entry.bank, entry.row, entry.column);
  const u64 done = fetch_row(entry.bank, entry.row, cycle, &entry);
  if (entry.req.type == AccessType::kRead) {
    respond_at(entry.req, tick_of(done) + buffer_hit_ticks_);
  } else {
    ++n_writes_;
  }
  if (precharge_after) {
    actions_.push_back(PfAction{.bank = entry.bank,
                                .row = entry.row,
                                .precharge_after = true,
                                .fetch_issued = true,
                                .fetch_done_cycle = done,
                                .created_cycle = cycle});
  }
}

u64 VaultController::issue_demand_column(u64 cycle, bool act) {
  // A drain-mode flip and a buffer re-scan have no timing gate: the next
  // wake makes them.
  const bool drain = next_drain_mode();
  if (drain != draining_writes_) {
    if (!act) return cycle;
    draining_writes_ = drain;
  }
  auto& queue = drain ? wrq_ : rdq_;

  // Re-check the prefetch buffer, but only if a row landed since this
  // queue's last scan: entries enter the queue only after missing the
  // buffer (admit_ingress), so without a fill nothing new can hit.
  u64& scanned = drain ? wrq_scanned_fills_ : rdq_scanned_fills_;
  if (!queue.empty() && scanned != buffer_fills_) {
    if (!act) return cycle;
    scanned = buffer_fills_;
    for (auto it = queue.begin(); it != queue.end();) {
      if (serve_from_buffer(*it, cycle, /*count_miss=*/false)) {
        it = queue.erase(it);
      } else {
        ++it;
      }
    }
  }

  const auto& t = cfg_.timing;

  // First-ready pass: oldest request whose column command can issue now,
  // once its bank's column path and the data bus are free.
  u64 next = kTickNever;
  for (auto it = queue.begin(); it != queue.end(); ++it) {
    dram::Bank& bank = banks_[it->bank];
    if (bank.open_row(cycle) != it->row) continue;
    const u64 lead = it->req.type == AccessType::kRead ? t.tCL : t.tWL;
    const u64 gate =
        std::max(bank.earliest_column(cycle),
                 bus_free_cycle_ - std::min(bus_free_cycle_, lead));
    if (gate != cycle) {
      next = std::min(next, gate);
      continue;
    }
    if (!act) return cycle;

    classify_if_new(*it, cycle);
    prefetch::AccessContext ctx{.bank = it->bank,
                                .row = it->row,
                                .line = it->column,
                                .type = it->req.type,
                                .outcome = it->outcome,
                                .queued_same_row = queued_same_row(*it),
                                .dram_cycle = cycle};
    const prefetch::PrefetchDecision decision =
        scheme_->on_demand_access(ctx);

    if (decision.fetch_row && decision.serve_via_buffer &&
        !buffer_.contains(BankRow{it->bank, it->row})) {
      // BASE: the demand rides the row copy itself.
      serve_via_fetch(*it, cycle, decision.precharge_after);
      prefetch::PrefetchDecision extras = decision;
      extras.fetch_row = false;  // the copy is already in flight
      apply_decision(extras, *it);
      queue.erase(it);
      return cycle;
    }

    note_row_reference(it->bank, it->row, it->column);
    const u64 waited = cycle - std::min(cycle, cycle_of(it->arrival));
    h_queue_wait_.sample(waited);
    h_lat_vault_queue_.sample(cpu_cycles_of_dram(waited));
    if (trace_ != nullptr && waited > 0) {
      trace_->record(obs::Stage::kVaultQueue, id_, it->req.id,
                     tick_of(cycle - waited), tick_of(cycle));
    }
    u64 done;
    if (it->req.type == AccessType::kRead) {
      done = bank.read(cycle, it->req.id);
      if (energy_ != nullptr) energy_->add(EnergyEvent::kReadLine);
      respond_at(it->req, tick_of(done));
    } else {
      done = bank.write(cycle, it->req.id);
      ++n_writes_;
      if (energy_ != nullptr) energy_->add(EnergyEvent::kWriteLine);
      // Posted write: completes silently.
    }
    h_lat_bank_service_.sample(cpu_cycles_of_dram(done - cycle));
    bus_free_cycle_ = done;
    apply_decision(decision, *it);
    if (cfg_.page_policy == PagePolicy::kClosed && !decision.precharge_after) {
      // Closed page: schedule a precharge once no queued demand still
      // targets this row (the executor checks both conditions).
      bool queued = false;
      for (const auto& action : actions_) {
        if (action.bank == it->bank && action.row == it->row) {
          queued = true;
          break;
        }
      }
      if (!queued) {
        actions_.push_back(PfAction{.bank = it->bank,
                                    .row = it->row,
                                    .precharge_after = true,
                                    .fetch_issued = true,
                                    .fetch_done_cycle = cycle,
                                    .created_cycle = cycle});
      }
    }
    queue.erase(it);
    return cycle;
  }
  return next;
}

u64 VaultController::advance_demand_bank(u64 cycle, bool act) {
  // Advance the oldest request of each bank (younger requests to the same
  // bank must not interleave PRE/ACT with it); issue at most one command.
  // A request whose row is open waits for its column in
  // issue_demand_column.
  u64 next = kTickNever;
  u32 banks_seen = 0;  // bitmask; at most 32 banks (constructor assert)
  for (auto& entry : draining_writes_ ? wrq_ : rdq_) {
    const u32 bank_bit = 1u << entry.bank;
    if (banks_seen & bank_bit) continue;
    banks_seen |= bank_bit;

    dram::Bank& bank = banks_[entry.bank];
    if (bank.open_row(cycle) == entry.row) continue;
    const u64 gate = open_gate(bank, cycle);
    if (gate != cycle) {
      next = std::min(next, gate);
      continue;
    }
    if (!act) return cycle;
    classify_if_new(entry, cycle);
    if (bank.open_row(cycle)) {
      precharge(bank, cycle);
    } else {
      activate(bank, cycle, entry.row, entry.req.id);
    }
    return cycle;
  }
  return next;
}

bool VaultController::next_drain_mode() const {
  // Idempotent for fixed queues: a second update changes nothing, so the
  // mode does not depend on how many wakes ran in between.
  if (rdq_.empty() && !wrq_.empty()) return true;  // only writes queued
  return draining_writes_ ? wrq_.size() > cfg_.write_drain_low
                          : wrq_.size() >= cfg_.write_drain_high;
}

void VaultController::complete_fetch(BankId bank, RowId row,
                                     u64 seed_bitmap, u64 issue_cycle) {
  const auto result =
      buffer_.insert(BankRow{bank, row}, seed_bitmap, issue_cycle);
  if (!result.inserted) return;
  ++buffer_fills_;
  // The new row can serve queued demands or cancel a queued copy of itself;
  // the wake at this tick runs after this event (late phase) and acts on it.
  if (has_work()) schedule_wake_at_cycle(cycle_of(sim_.now()));
  c_prefetch_.inc();
  if (result.victim) {
    scheme_->on_prefetch_evicted(result.victim->id, result.victim->referenced);
    if (result.victim->dirty && energy_ != nullptr) {
      energy_->add(EnergyEvent::kRowWriteback);
    }
  }
}

u64 VaultController::issue_prefetch(u64 cycle, bool act) {
  u64 next = kTickNever;
  for (auto it = actions_.begin(); it != actions_.end();) {
    PfAction& action = *it;
    dram::Bank& bank = banks_[action.bank];
    const std::optional<RowId> open = bank.open_row(cycle);
    const bool row_open = open == action.row;

    // The gate of the action's next step. An issued copy waits to close its
    // row (or, under the closed-page policy, the row its column access
    // used) once the copy completes; if the row already closed (e.g. a
    // refresh drain), the action just ends then. An un-issued copy whose
    // row is already buffered is dropped at once.
    u64 gate;
    bool ends = false;  // the step issues no command
    if (action.fetch_issued) {
      ends = !row_open;
      gate = std::max(action.fetch_done_cycle,
                      row_open ? bank.earliest_precharge(cycle) : cycle);
    } else if (buffer_.contains(BankRow{action.bank, action.row})) {
      ends = true;
      gate = cycle;
    } else {
      gate = row_open ? bank.earliest_column(cycle) : open_gate(bank, cycle);
    }
    if (gate != cycle) {
      next = std::min(next, gate);
      ++it;
      continue;
    }
    if (!act) return cycle;

    if (ends) {
      if (!action.fetch_issued) ++n_prefetch_dropped_;
      it = actions_.erase(it);
      continue;
    }
    if (row_open && !action.fetch_issued) {
      const u64 done = fetch_row(action.bank, action.row, cycle);
      if (action.precharge_after) {
        action.fetch_issued = true;
        action.fetch_done_cycle = done;
      } else {
        actions_.erase(it);
      }
      return cycle;
    }
    if (!open) {
      activate(bank, cycle, action.row);
      return cycle;
    }
    // Close the open row only if no queued demand still wants it: after a
    // CAMPS fetch those demands drain via the buffer first, under closed
    // page they are row hits, and a prefetch must never turn a pending row
    // hit into a conflict.
    if (!row_demanded(action.bank, *open)) {
      precharge(bank, cycle);
      if (action.fetch_issued) actions_.erase(it);
      return cycle;
    }
    ++it;
  }
  return next;
}

}  // namespace camps::hmc
