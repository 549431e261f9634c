#include "hmc/host_controller.hpp"

#include <string>
#include <utility>

namespace camps::hmc {
namespace {

StatRegistry& checked(StatRegistry* stats) {
  CAMPS_ASSERT_MSG(stats != nullptr, "HostController requires a StatRegistry");
  return *stats;
}

}  // namespace

HostController::HostController(sim::Simulator& sim, const HmcConfig& config,
                               prefetch::SchemeKind scheme,
                               const prefetch::SchemeParams& params,
                               StatRegistry* stats, obs::TraceRecorder* trace)
    : sim_(sim),
      device_(sim, config, scheme, params, checked(stats),
              [this](const MemRequest& req) { deliver(req); }, trace),
      trace_(trace),
      h_lat_total_read_(stats->histogram("latency.total_read_cycles")) {}

u64 HostController::read(Addr addr, CoreId core, CompletionFn on_done) {
  MemRequest req;
  req.id = next_id_++;
  req.addr = addr;
  req.type = AccessType::kRead;
  req.core = core;
  req.created = sim_.now();
  Pending pending;
  pending.on_done = std::move(on_done);
  pending.addr = addr;
  pending.core = core;
  pending.first_created = req.created;
  const auto [it, inserted] = outstanding_.emplace(req.id, std::move(pending));
  CAMPS_ASSERT(inserted);
  ++reads_;
  const auto& fault_cfg = device_.config().fault;
  if (device_.fault_plan() != nullptr && fault_cfg.host_timeout_ticks > 0) {
    arm_timeout(req.id, fault_cfg.host_timeout_ticks);
  }
  device_.submit(req, sim_.now());
  return req.id;
}

u64 HostController::write(Addr addr, CoreId core) {
  MemRequest req;
  req.id = next_id_++;
  req.addr = addr;
  req.type = AccessType::kWrite;
  req.core = core;
  req.created = sim_.now();
  ++writes_;
  device_.submit(req, sim_.now());
  return req.id;
}

void HostController::arm_timeout(u64 id, Tick delay) {
  const auto it = outstanding_.find(id);
  CAMPS_ASSERT(it != outstanding_.end());
  it->second.timer = sim_.schedule(delay, [this, id] { on_timeout(id); },
                                   sim::EventSource::kHost);
}

void HostController::on_timeout(u64 id) {
  const auto it = outstanding_.find(id);
  CAMPS_ASSERT_MSG(it != outstanding_.end(), "timeout for unknown request");
  fault::FaultPlan* plan = device_.fault_plan();
  CAMPS_ASSERT_MSG(plan != nullptr, "timeout armed without a fault plan");
  const auto& fault_cfg = device_.config().fault;
  Pending pending = std::move(it->second);
  outstanding_.erase(it);
  if (pending.attempt > fault_cfg.host_retry_budget) {
    // Retry budget exhausted: complete the request poisoned so the core
    // can account the loss instead of stalling forever.
    MemRequest req;
    req.id = id;
    req.addr = pending.addr;
    req.type = AccessType::kRead;
    req.core = pending.core;
    req.created = pending.first_created;
    req.poisoned = true;
    plan->count_host_poison(sim_.now() - pending.first_created);
    if (trace_ != nullptr) {
      trace_->record(obs::Stage::kHostRead, req.core, req.id,
                     pending.first_created, sim_.now());
    }
    if (pending.on_done) pending.on_done(req);
    return;
  }
  // Linear backoff: the n-th retry waits n backoff periods before
  // re-entering the cube, spacing repeated attempts under a fault burst.
  const Tick backoff = fault_cfg.host_backoff_ticks * pending.attempt;
  plan->count_host_retry();
  reissue(std::move(pending), backoff);
}

void HostController::reissue(Pending pending, Tick backoff) {
  // A fresh id per attempt: if the "lost" original (or its response) is
  // merely late, its delivery is detected as stale instead of being
  // double-counted as the retry's answer.
  const u64 id = next_id_++;
  pending.attempt += 1;
  const auto& fault_cfg = device_.config().fault;
  const Tick timeout = fault_cfg.host_timeout_ticks;
  const auto [it, inserted] = outstanding_.emplace(id, std::move(pending));
  CAMPS_ASSERT(inserted);
  if (timeout > 0) arm_timeout(id, backoff + timeout);
  sim_.schedule(backoff, [this, id] {
    const auto entry = outstanding_.find(id);
    if (entry == outstanding_.end()) return;  // poisoned meanwhile
    MemRequest req;
    req.id = id;
    req.addr = entry->second.addr;
    req.type = AccessType::kRead;
    req.core = entry->second.core;
    req.created = sim_.now();
    device_.submit(req, sim_.now());
  }, sim::EventSource::kHost);
}

void HostController::deliver(const MemRequest& request) {
  const auto it = outstanding_.find(request.id);
  if (it == outstanding_.end()) {
    // Under fault injection a response can race its own timeout: the retry
    // superseded this id, or the poison path already completed it.
    fault::FaultPlan* plan = device_.fault_plan();
    if (plan != nullptr) {
      plan->count_late_response();
      return;
    }
    CAMPS_ASSERT_MSG(false, "response for unknown request");
  }
  Pending& pending = it->second;
  sim_.cancel(pending.timer);
  const u64 cycles =
      (sim_.now() - pending.first_created) / sim::kCpuTicksPerCycle;
  h_lat_total_read_.sample(cycles);
  if (trace_ != nullptr) {
    trace_->record(obs::Stage::kHostRead, request.core, request.id,
                   pending.first_created, sim_.now());
  }
  if (pending.attempt > 1) {
    device_.fault_plan()->count_host_recovery(sim_.now() -
                                              pending.first_created);
  }
  CompletionFn on_done = std::move(pending.on_done);
  outstanding_.erase(it);
  if (on_done) on_done(request);
}

void HostController::reset_stats() {
  h_lat_total_read_.reset();
  reads_ = writes_ = 0;
  device_.reset_stats();
}

}  // namespace camps::hmc
