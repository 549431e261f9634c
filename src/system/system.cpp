#include "system/system.hpp"

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "workload/workloads.hpp"

namespace camps::system {
namespace {

/// Applies the per-core virtual->physical fold so all downstream structures
/// (shared L3, HMC) see disjoint physical slices per core.
class TranslatingSource final : public trace::TraceSource {
 public:
  TranslatingSource(std::unique_ptr<trace::TraceSource> inner, Addr slice_base,
                    u64 slice_bytes)
      : inner_(std::move(inner)),
        slice_base_(slice_base),
        slice_bytes_(slice_bytes) {}

  std::optional<trace::TraceRecord> next() override {
    auto r = inner_->next();
    if (!r) return std::nullopt;
    r->addr = slice_base_ + r->addr % slice_bytes_;
    return r;
  }
  void reset() override { inner_->reset(); }

 private:
  std::unique_ptr<trace::TraceSource> inner_;
  Addr slice_base_;
  u64 slice_bytes_;
};

}  // namespace

class System::MemoryAdapter final : public cache::MemoryPort {
 public:
  explicit MemoryAdapter(hmc::HostController* host) : host_(host) {}

  void mem_read(Addr line_addr, CoreId core,
                std::function<void()> done) override {
    host_->read(line_addr, core,
                [done = std::move(done)](const hmc::MemRequest&) { done(); });
  }
  void mem_write(Addr line_addr, CoreId core) override {
    host_->write(line_addr, core);
  }

 private:
  hmc::HostController* host_;
};

System::System(const SystemConfig& config,
               std::vector<std::unique_ptr<trace::TraceSource>> traces)
    : cfg_(config) {
  CAMPS_ASSERT_MSG(traces.size() == cfg_.cores,
                   "one trace source per core required");
  if (cfg_.obs.trace_enabled) trace_.enable(cfg_.obs.trace_capacity);
  host_ = std::make_unique<hmc::HostController>(
      sim_, cfg_.hmc, cfg_.scheme, cfg_.scheme_params, &stats_, &trace_);
  adapter_ = std::make_unique<MemoryAdapter>(host_.get());
  caches_ = std::make_unique<cache::CacheHierarchy>(sim_, cfg_.caches,
                                                    cfg_.cores, adapter_.get());
  const u64 slice = cfg_.core_slice_bytes();
  traces_.reserve(cfg_.cores);
  cores_.reserve(cfg_.cores);
  for (CoreId c = 0; c < cfg_.cores; ++c) {
    traces_.push_back(std::make_unique<TranslatingSource>(
        std::move(traces[c]), Addr{c} * slice, slice));
    cores_.push_back(std::make_unique<cpu::Core>(
        sim_, c, cfg_.core, traces_.back().get(), caches_.get(),
        [this](CoreId id) { on_core_warmed(id); },
        [this](CoreId id) { on_core_measured(id); }));
  }
  if (cfg_.audit_every > 0) {
    // A refresh drain lasts a few dozen of a vault's tREFI cycles, so a
    // periodic audit rarely lands in one: each vault also audits itself
    // when a drain begins.
    host_->device().set_drain_hook([this](const hmc::VaultController& vault) {
      check::AuditReporter rep;
      rep.set_tick(sim_.now());
      vault.audit(rep);
      if (!rep.clean()) check::audit_fail(rep);
    });
  }
}

System::~System() = default;

void System::on_core_warmed(CoreId /*core*/) {
  if (++warmed_ != cfg_.cores) return;
  // Measurement window opens: reset every memory-side statistic while the
  // microarchitectural state (caches, row buffers, prefetch buffers) stays
  // warm — the paper's warmup methodology.
  window_start_ = sim_.now();
  host_->reset_stats();
  caches_->reset_stats();
  stats_.reset();
  trace_.clear();  // the exported trace covers the measurement window
  instr_at_window_start_ = 0;
  for (const auto& core : cores_) {
    instr_at_window_start_ += core->instructions_issued();
  }
}

void System::on_core_measured(CoreId /*core*/) {
  if (++measured_ == cfg_.cores) window_end_ = sim_.now();
}

void System::audit(check::AuditReporter& rep) const {
  rep.set_tick(sim_.now());
  sim_.audit(rep);
  caches_->audit(rep);
  for (const auto& core : cores_) core->audit(rep);
  host_->audit(rep);
}

void System::audit_or_abort() const {
  check::AuditReporter rep;
  audit(rep);
  if (!rep.clean()) check::audit_fail(rep);
}

RunResults System::run() {
  CAMPS_ASSERT_MSG(!ran_, "System::run() may be called once");
  ran_ = true;
  const auto wall_start = std::chrono::steady_clock::now();
  if (cfg_.audit_every > 0) {
    sim_.set_event_hook(cfg_.audit_every, [this] { audit_or_abort(); });
  }
  if (cfg_.obs.epoch_ticks > 0) {
    epoch_sampler_ = std::make_unique<obs::EpochSampler>(
        sim_, cfg_.obs.epoch_ticks, [this] { return sample_epoch(); },
        [this] { return measured_ != cfg_.cores; });
    epoch_sampler_->start();
  }
  for (auto& core : cores_) core->start();
  const Tick bound = cfg_.max_cycles * sim::kCpuTicksPerCycle;
  sim_.run_while_pending([&] {
    if (measured_ == cfg_.cores) return true;
    if (sim_.now() >= bound) {
      partial_ = true;
      return true;
    }
    return false;
  });
  if (partial_ || window_end_ == 0) window_end_ = sim_.now();
  if (warmed_ != cfg_.cores) window_start_ = window_end_;
  // Closing audit: the drained end state must satisfy every invariant too.
  if (cfg_.audit_every > 0) audit_or_abort();
  RunResults r = collect_results();
  r.events_executed = sim_.events_executed();
  r.events_by_source = sim_.events_by_source();
  r.wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  return r;
}

RunResults System::collect_results() const {
  RunResults r;
  r.scheme = prefetch::to_string(cfg_.scheme);
  r.partial = partial_;
  r.measure_span_ticks =
      window_end_ > window_start_ ? window_end_ - window_start_ : 0;

  std::vector<double> ipcs;
  u64 window_instructions = 0;
  for (const auto& core : cores_) {
    CoreResult cr;
    cr.ipc = core->measured_ipc();
    cr.instructions = core->measured_instructions();
    cr.loads = core->loads();
    cr.stores = core->stores();
    cr.stall_cycles = core->stall_cycles();
    window_instructions += core->instructions_issued();
    ipcs.push_back(cr.ipc);
    r.cores.push_back(cr);
  }
  window_instructions -= std::min(window_instructions, instr_at_window_start_);
  r.geomean_ipc = geometric_mean(ipcs);

  r.amat_cycles = caches_->amat_cycles();
  r.mem_latency_cycles = host_->mean_read_latency_cycles();

  const auto& device = host_->device();
  const hmc::DeviceTotals t = device.totals();
  r.row_hits = t.row_hits;
  r.row_empties = t.row_empties;
  r.row_conflicts = t.row_conflicts;
  r.row_conflict_rate = t.row_conflict_rate();
  r.prefetches = t.prefetches;
  r.prefetch_accuracy = t.prefetch_accuracy;
  r.buffer_hits = t.buffer_hits;
  r.buffer_misses = t.buffer_misses;
  r.buffer_hit_rate = t.buffer_hit_rate();

  r.memory_reads = caches_->memory_reads();
  r.memory_writes = caches_->memory_writes();
  r.mpki = window_instructions == 0
               ? 0.0
               : 1000.0 * static_cast<double>(caches_->l3().misses()) /
                     static_cast<double>(window_instructions);

  const double window_ns = static_cast<double>(r.measure_span_ticks) /
                           static_cast<double>(sim::kTicksPerNs);
  r.energy_pj = device.energy().total_pj(window_ns);

  if (r.measure_span_ticks > 0) {
    const double span = static_cast<double>(r.measure_span_ticks) *
                        static_cast<double>(cfg_.hmc.num_links);
    r.link_down_utilization =
        static_cast<double>(device.link_busy_ticks_down()) / span;
    r.link_up_utilization =
        static_cast<double>(device.link_busy_ticks_up()) / span;
  }
  r.link_wakeups = device.link_wakeups();

  for (const auto& [name, stage] : kLatencyStages) {
    const Histogram* h =
        stats_.find_histogram(std::string("latency.") + name + "_cycles");
    CAMPS_ASSERT_MSG(h != nullptr, name);
    r.latency.*stage = stage_stats(*h);
  }

  if (trace_.enabled()) {
    r.trace_spans = std::make_shared<const std::vector<obs::Span>>(
        trace_.sorted_spans());
    r.trace_recorded = trace_.recorded();
    r.trace_dropped = trace_.dropped();
  }
  if (epoch_sampler_ != nullptr) {
    r.epochs = std::make_shared<const std::vector<obs::EpochSample>>(
        epoch_sampler_->samples());
  }
  if (const fault::FaultPlan* plan = device.fault_plan()) {
    r.faults.active = true;
    for (const auto& [name, value] : kFaultCounters) {
      r.faults.*value = stats_.counter_value(std::string("fault.") + name);
    }
    r.faults.recovery = stage_stats(plan->recovery());
  }
  return r;
}

obs::EpochSample System::sample_epoch() const {
  obs::EpochSample s;
  const auto& device = host_->device();
  const hmc::DeviceTotals t = device.totals();
  s.row_hits = t.row_hits;
  s.row_empties = t.row_empties;
  s.row_conflicts = t.row_conflicts;
  s.row_conflict_rate = t.row_conflict_rate();
  s.prefetches_issued = t.prefetches;
  s.prefetch_accuracy = t.prefetch_accuracy;
  s.buffer_hits = t.buffer_hits;
  s.buffer_misses = t.buffer_misses;
  s.buffer_hit_rate = t.buffer_hit_rate();
  s.link_down_busy_ticks = device.link_busy_ticks_down();
  s.link_up_busy_ticks = device.link_busy_ticks_up();
  for (VaultId v = 0; v < device.vault_count(); ++v) {
    const auto& vault = device.vault(v);
    s.buffer_occupancy += vault.buffer().size();
    s.demand_reads += vault.demand_reads();
    s.demand_writes += vault.demand_writes();
  }
  return s;
}

std::unique_ptr<System> make_workload_system(const SystemConfig& config,
                                             const std::string& workload_id) {
  const auto& wl = workload::workload(workload_id);
  auto sources = wl.make_sources(config.seed, config.pattern_geometry());
  CAMPS_ASSERT(sources.size() == config.cores);
  return std::make_unique<System>(config, std::move(sources));
}

}  // namespace camps::system
