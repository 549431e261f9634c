#include "hmc/hmc_device.hpp"

#include <memory>

#include "sim/clock.hpp"

namespace camps::hmc {

using energy::EnergyEvent;

HmcDevice::HmcDevice(sim::Simulator& sim, const HmcConfig& config,
                     prefetch::SchemeKind scheme,
                     const prefetch::SchemeParams& params, StatRegistry& stats,
                     DeliverFn deliver, obs::TraceRecorder* trace)
    : sim_(sim),
      cfg_(config),
      map_(config.geometry, config.field_order),
      energy_(config.energy),
      down_xbar_(config.geometry.vaults, config.crossbar),
      up_xbar_(config.num_links, config.crossbar),
      deliver_(std::move(deliver)),
      trace_(trace),
      h_lat_host_queue_(stats.histogram("latency.host_queue_cycles")),
      h_lat_link_down_(stats.histogram("latency.link_down_cycles")),
      h_lat_link_up_(stats.histogram("latency.link_up_cycles")) {
  CAMPS_ASSERT(cfg_.num_links > 0);
  if (cfg_.fault.enabled()) {
    fault_plan_ = std::make_unique<fault::FaultPlan>(cfg_.fault, stats);
    vault_fault_counts_.assign(cfg_.geometry.vaults, 0);
  }
  links_.reserve(cfg_.num_links);
  for (u32 l = 0; l < cfg_.num_links; ++l) {
    links_.push_back(
        std::make_unique<SerialLink>(cfg_.link, cfg_.fault.link_tokens));
    links_[l]->downstream().attach_trace(trace_, obs::Stage::kLinkDown, l);
    links_[l]->upstream().attach_trace(trace_, obs::Stage::kLinkUp, l);
    if (fault_plan_ != nullptr) {
      links_[l]->downstream().attach_faults(fault_plan_.get(), l, false);
      links_[l]->upstream().attach_faults(fault_plan_.get(), l, true);
    }
  }
  down_xbar_.attach_trace(trace_, obs::Stage::kXbarDown);
  up_xbar_.attach_trace(trace_, obs::Stage::kXbarUp);
  if (fault_plan_ != nullptr) {
    // Disjoint unit bases keep the two crossbars' decision streams
    // independent (down ports are vault ids, up ports are link ids).
    down_xbar_.attach_faults(fault_plan_.get(), 0);
    up_xbar_.attach_faults(fault_plan_.get(), cfg_.geometry.vaults);
  }
  vaults_.reserve(cfg_.geometry.vaults);
  for (VaultId v = 0; v < cfg_.geometry.vaults; ++v) {
    vaults_.push_back(std::make_unique<VaultController>(
        sim_, v, cfg_.geometry, cfg_.vault,
        prefetch::make_scheme(scheme, cfg_.geometry.banks_per_vault, params),
        &energy_, stats,
        [this, v](const MemRequest& req, Tick ready) {
          on_vault_response(req, v, ready);
        },
        trace_));
  }
}

void HmcDevice::submit(const MemRequest& request, Tick now) {
  const DecodedAddr decoded = map_.decode(request.addr);
  const u32 link_idx = decoded.vault % cfg_.num_links;
  const PacketKind kind = request.type == AccessType::kRead
                              ? PacketKind::kReadReq
                              : PacketKind::kWriteReq;
  const u32 flits = flits_for(kind);
  energy_.add(EnergyEvent::kLinkFlit, flits);
  const auto xfer =
      links_[link_idx]->downstream().submit(now, flits, request.id);
  if (xfer.dropped) return;  // lost on the link; host timeout recovers
  h_lat_host_queue_.sample((xfer.start - now) / sim::kCpuTicksPerCycle);
  h_lat_link_down_.sample((xfer.deliver - xfer.start) /
                          sim::kCpuTicksPerCycle);
  if (trace_ != nullptr && xfer.start > now) {
    trace_->record(obs::Stage::kHostQueue, link_idx, request.id, now,
                   xfer.start);
  }
  const Tick at_xbar = xfer.deliver;
  const auto routed = down_xbar_.route(at_xbar, decoded.vault, request.id);
  if (routed.dropped) return;  // grant lost; host timeout recovers
  // The vault takes the request now and sees it from routed.deliver on
  // (VaultController::receive), so the arrival costs no event.
  vaults_[decoded.vault]->receive(request, decoded, routed.deliver);
}

void HmcDevice::on_vault_response(const MemRequest& request, VaultId vault,
                                  Tick ready) {
  // Reads only (writes are posted). Chain: crossbar -> upstream link.
  if (fault_plan_ != nullptr &&
      fault_plan_->roll(fault::Site::kVaultStall, vault)) {
    // The vault's response logic hiccuped (ECC scrub, TSV retrain, ...):
    // the data leaves late. Repeated stalls degrade the vault.
    fault_plan_->count_vault_stall();
    ready += cfg_.fault.vault_stall_ticks;
    note_vault_fault(vault);
  }
  const u32 link_idx = vault % cfg_.num_links;
  const u32 flits = flits_for(PacketKind::kReadResp);
  energy_.add(EnergyEvent::kLinkFlit, flits);
  const auto routed = up_xbar_.route(ready, link_idx, request.id);
  if (routed.dropped) return;  // response lost; host timeout recovers
  const auto xfer =
      links_[link_idx]->upstream().submit(routed.deliver, flits, request.id);
  if (xfer.dropped) return;  // response lost; host timeout recovers
  h_lat_link_up_.sample((xfer.deliver - xfer.start) / sim::kCpuTicksPerCycle);
  const Tick at_host = xfer.deliver;
  sim_.schedule_at(at_host, [this, request] { deliver_(request); },
                   sim::EventSource::kLink);
}

void HmcDevice::note_vault_fault(VaultId vault) {
  if (cfg_.fault.vault_degrade_threshold == 0) return;
  if (++vault_fault_counts_[vault] < cfg_.fault.vault_degrade_threshold) {
    return;
  }
  vault_fault_counts_[vault] = 0;
  vaults_[vault]->degrade_flush();
  fault_plan_->count_degrade_flush();
}

void HmcDevice::set_drain_hook(const VaultController::DrainHook& hook) {
  for (auto& v : vaults_) v->set_drain_hook(hook);
}

void HmcDevice::reset_stats() {
  for (auto& v : vaults_) v->reset_stats();
  h_lat_host_queue_.reset();
  h_lat_link_down_.reset();
  h_lat_link_up_.reset();
  for (auto& link : links_) {
    link->downstream().reset_stats();
    link->upstream().reset_stats();
  }
  energy_.reset();
}

Tick HmcDevice::link_busy_ticks_down() const {
  Tick total = 0;
  for (const auto& link : links_) total += link->downstream().busy_ticks();
  return total;
}

Tick HmcDevice::link_busy_ticks_up() const {
  Tick total = 0;
  for (const auto& link : links_) total += link->upstream().busy_ticks();
  return total;
}

u64 HmcDevice::link_wakeups() const {
  u64 total = 0;
  for (const auto& link : links_) {
    total += link->downstream().wakeups() + link->upstream().wakeups();
  }
  return total;
}

bool HmcDevice::idle() const {
  for (const auto& v : vaults_) {
    if (!v->idle()) return false;
  }
  return true;
}

DeviceTotals HmcDevice::totals() const {
  DeviceTotals t;
  // Accuracy is the mean of per-vault row accuracies, weighted by rows
  // prefetched.
  double useful = 0.0, rows = 0.0;
  for (const auto& v : vaults_) {
    t.row_hits += v->row_hits();
    t.row_empties += v->row_empties();
    t.row_conflicts += v->row_conflicts();
    t.prefetches += v->prefetches_issued();
    const auto& buf = v->buffer();
    t.buffer_hits += buf.hits();
    t.buffer_misses += buf.misses();
    const double inserted = static_cast<double>(buf.inserts());
    useful += buf.row_accuracy() * inserted;
    rows += inserted;
  }
  t.prefetch_accuracy = rows == 0.0 ? 0.0 : useful / rows;
  return t;
}

double DeviceTotals::row_conflict_rate() const {
  const u64 accesses = row_hits + row_empties + row_conflicts;
  return accesses == 0 ? 0.0
                       : static_cast<double>(row_conflicts) /
                             static_cast<double>(accesses);
}

double DeviceTotals::buffer_hit_rate() const {
  const u64 lookups = buffer_hits + buffer_misses;
  return lookups == 0 ? 0.0
                      : static_cast<double>(buffer_hits) /
                            static_cast<double>(lookups);
}

}  // namespace camps::hmc
