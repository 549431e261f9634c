// Cold-path audit() definitions for the vault/host controllers and device
// (contract: check/audit.hpp; invariant catalog: docs/static_analysis.md).
// Kept out of the hot translation units so the audit code — which runs
// every N-hundred-thousand events, or never — does not dilute their .text.

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "check/audit.hpp"
#include "hmc/hmc_device.hpp"
#include "hmc/host_controller.hpp"
#include "hmc/vault_controller.hpp"
#include "prefetch/scheme_camps.hpp"

namespace camps {

void hmc::HostController::audit(check::AuditReporter& rep) const {
  {
    const check::AuditScope scope(rep, "host");
    const u32 retry_budget = device_.config().fault.host_retry_budget;
    // Every outstanding read's timeout is still queued exactly when fault
    // recovery is active: a fired or cancelled timer on a live read would
    // leave it to hang, and an answered read's timer is cancelled, not
    // left to fire on a dangling id.
    const bool recovery = device_.fault_plan() != nullptr &&
                          device_.config().fault.host_timeout_ticks > 0;
    for (const auto& [id, p] : outstanding_) {
      rep.expect(id != 0 && id < next_id_, "host-id-range",
                 "outstanding request id " + std::to_string(id) +
                     " was never issued (next id is " +
                     std::to_string(next_id_) + ")");
      rep.expect(static_cast<bool>(p.on_done), "host-dead-callback",
                 "outstanding read " + std::to_string(id) +
                     " has no completion callback");
      // attempt can reach budget+1 (the last retry); beyond that the
      // timeout path must have poisoned the request already.
      rep.expect(p.attempt >= 1 && p.attempt <= retry_budget + 1,
                 "host-attempt-range",
                 "outstanding read " + std::to_string(id) + " is on attempt " +
                     std::to_string(p.attempt) + " with a retry budget of " +
                     std::to_string(retry_budget));
      rep.expect(sim_.queue().pending(p.timer) == recovery, "host-timer-leak",
                 "outstanding read " + std::to_string(id) +
                     (recovery ? " has no timeout pending in the event queue"
                               : " holds a pending timeout while fault "
                                 "recovery is off"));
    }
  }
  device_.audit(rep);
}

void hmc::VaultController::audit(check::AuditReporter& rep) const {
  const check::AuditScope scope(rep, "vault" + std::to_string(id_));
  const u64 cycle = cycle_of(sim_.now());

  // Owned-structure shapes follow the device geometry.
  const u32 banks = geom_.banks_per_vault;
  rep.expect(banks_.size() == banks, "vault-bank-shape",
             std::to_string(banks_.size()) + " banks constructed, " +
                 std::to_string(banks) + " in the geometry");
  rep.expect(open_row_refs_.size() == banks_.size(), "vault-refs-shape",
             "open-row reference tracking covers " +
                 std::to_string(open_row_refs_.size()) + " of " +
                 std::to_string(banks_.size()) + " banks");
  rep.expect(act_window_pos_ < act_window_.size(), "vault-act-ring",
             "tFAW ring cursor " + std::to_string(act_window_pos_) +
                 " out of range");

  // Queue capacities (Table I: 32-entry read and write queues). The ingress
  // stage is unbounded by design (it models the packet link buffer), so only
  // the scheduler queues are checked.
  rep.expect(rdq_.size() <= cfg_.read_queue, "vault-rdq-capacity",
             std::to_string(rdq_.size()) + " reads queued, capacity " +
                 std::to_string(cfg_.read_queue));
  rep.expect(wrq_.size() <= cfg_.write_queue, "vault-wrq-capacity",
             std::to_string(wrq_.size()) + " writes queued, capacity " +
                 std::to_string(cfg_.write_queue));

  // Every queued coordinate must decode inside this vault's geometry.
  const u64 line_limit = geom_.lines_per_row();
  auto check_entries = [&](const std::deque<QueueEntry>& q, const char* which) {
    for (const QueueEntry& e : q) {
      rep.expect(e.bank < banks, "vault-entry-bank",
                 std::string(which) + " entry for request " +
                     std::to_string(e.req.id) + " targets bank " +
                     std::to_string(e.bank) + " of " +
                     std::to_string(banks));
      rep.expect(e.column < line_limit, "vault-entry-column",
                 std::string(which) + " entry for request " +
                     std::to_string(e.req.id) + " targets column " +
                     std::to_string(e.column) + " of " +
                     std::to_string(line_limit));
    }
  };
  check_entries(ingress_, "ingress");
  check_entries(rdq_, "read-queue");
  check_entries(wrq_, "write-queue");
  for (const PfAction& a : actions_) {
    rep.expect(a.bank < banks, "vault-action-bank",
               "prefetch action targets bank " + std::to_string(a.bank) +
                   " of " + std::to_string(banks));
  }

  // A vault with work must have its wake queued, or the work would sit
  // until an unrelated arrival happened to wake it. A request still on its
  // way needs a wake by the first DRAM edge at or after its arrival.
  const sim::EventQueue& queue = sim_.queue();
  if (has_work()) {
    rep.expect(queue.pending(wake_) && queue.time_of(wake_) >= sim_.now(),
               "vault-wake-pending",
               "work is queued but no wake event is pending");
  }
  if (!ingress_.empty() && !ingress_arrived()) {
    const QueueEntry& next = ingress_.front();
    const Tick edge = tick_of(edge_cycle(next.arrival));
    rep.expect(queue.pending(wake_) && queue.time_of(wake_) <= edge,
               "vault-wake-pending",
               "request " + std::to_string(next.req.id) +
                   " reaches the vault at tick " +
                   std::to_string(next.arrival) +
                   ", but no wake is pending by tick " + std::to_string(edge));
  }
  // During a refresh drain refresh_step closes banks in index order and
  // waits on the first bank that is not precharged: an open (or opening)
  // bank until its PRE gate, a precharging one until its tRP ends, after
  // which it moves on to the next bank. The drain next acts at the first
  // open bank's PRE gate, or launches the REF once no bank is left. The
  // wake must come by then. (A precharging bank's tRP end is not itself a
  // step: the wake may stop there, but need not.)
  if (refresh_draining_) {
    u64 step = edge_cycle(sim_.now());
    std::string blocker = "no bank";
    for (size_t b = 0; b < banks_.size(); ++b) {
      const dram::BankState s = banks_[b].state(step);
      if (s == dram::BankState::kPrecharging) {
        step = banks_[b].earliest_activate(step);
      } else if (s == dram::BankState::kActive ||
                 s == dram::BankState::kActivating) {
        step = banks_[b].earliest_precharge(step);
        blocker = "bank " + std::to_string(b);
        break;
      }
    }
    rep.expect(queue.pending(wake_) && queue.time_of(wake_) <= tick_of(step),
               "vault-wake-pending",
               "refresh drain blocked by " + blocker + " can step at cycle " +
                   std::to_string(step) + ", but no wake is pending by tick " +
                   std::to_string(tick_of(step)));
  }

  // Open-row reference bitmaps stay confined to the row's line count.
  const u64 line_mask =
      line_limit >= 64 ? ~u64{0} : ((u64{1} << line_limit) - 1);
  for (size_t b = 0; b < open_row_refs_.size(); ++b) {
    rep.expect((open_row_refs_[b].bitmap & ~line_mask) == 0,
               "vault-refs-bitmap",
               "bank " + std::to_string(b) +
                   " tracks referenced lines outside the row");
  }

  // Delegate to each owned component.
  for (size_t b = 0; b < banks_.size(); ++b) {
    const check::AuditScope bank_scope(rep, "bank" + std::to_string(b));
    banks_[b].audit(rep);
  }
  buffer_.audit(rep);
  scheme_->audit(rep);

  // Cross-structure CAMPS rule: a row cannot be open in its bank *and*
  // archived in the Conflict Table — the CT holds displaced rows only
  // (Section 3.1). The one legal overlap is transient: the controller has
  // activated the row for a queued demand but the scheme has not yet seen
  // the access (the CT entry is consumed at column issue). So an overlap is
  // a violation only when nothing pending explains it.
  const auto* camps =
      dynamic_cast<const prefetch::CampsScheme*>(scheme_.get());
  if (camps != nullptr) {
    // One RUT entry per bank of this vault (Table I: 16).
    rep.expect(camps->rut().banks() == banks, "rut-shape",
               "RUT tracks " + std::to_string(camps->rut().banks()) +
                   " banks, the geometry has " + std::to_string(banks));
    auto pending_for = [&](BankId bank, RowId row) {
      auto targets = [&](const QueueEntry& e) {
        return e.bank == bank && e.row == row;
      };
      // A request still on its way is not yet the vault's.
      auto arrived_targets = [&](const QueueEntry& e) {
        return e.arrival <= sim_.now() && targets(e);
      };
      return std::any_of(rdq_.begin(), rdq_.end(), targets) ||
             std::any_of(wrq_.begin(), wrq_.end(), targets) ||
             std::any_of(ingress_.begin(), ingress_.end(), arrived_targets) ||
             std::any_of(actions_.begin(), actions_.end(),
                         [&](const PfAction& a) {
                           return a.bank == bank && a.row == row;
                         });
    };
    for (size_t b = 0; b < banks_.size(); ++b) {
      const auto open = banks_[b].open_row(cycle);
      if (!open) continue;
      const BankId bank = static_cast<BankId>(b);
      if (!camps->conflict_table().contains(BankRow{bank, *open})) continue;
      rep.expect(pending_for(bank, *open), "vault-ct-open-row",
                 "bank " + std::to_string(b) + " holds row " +
                     std::to_string(*open) +
                     " open while the CT archives it as displaced, and no "
                     "pending demand or prefetch explains the overlap");
    }
  }
}

void hmc::HmcDevice::audit(check::AuditReporter& rep) const {
  // Flow-control conservation: credits are either available or in flight
  // back from a delivered packet — the pool never leaks or inflates.
  for (size_t l = 0; l < links_.size(); ++l) {
    const check::AuditScope scope(rep, "link" + std::to_string(l));
    auto check_dir = [&](const LinkDirection& dir, const char* which) {
      const u32 pool = cfg_.fault.link_tokens;
      if (fault_plan_ == nullptr || pool == 0) return;
      const u32 total = dir.tokens_available() + dir.tokens_pending();
      rep.expect(total == pool, "link-token-conservation",
                 std::string(which) + " direction holds " +
                     std::to_string(dir.tokens_available()) + " available + " +
                     std::to_string(dir.tokens_pending()) +
                     " returning tokens against a pool of " +
                     std::to_string(pool));
    };
    check_dir(links_[l]->downstream(), "downstream");
    check_dir(links_[l]->upstream(), "upstream");
  }
  for (const auto& vault : vaults_) vault->audit(rep);
}

}  // namespace camps
