// Full-system assembly: cores -> caches -> HMC, wired per SystemConfig.
//
// Methodology (mirrors the paper's Section 4): every core executes its
// trace; when a core crosses its warmup-instruction boundary it reports in,
// and when the *last* core does, all memory-side statistics reset — that
// instant opens the measurement window. The run ends when every core has
// completed its measured instruction budget (cores that finish early keep
// executing so contention stays realistic), or at the max_cycles bound.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cpu/core.hpp"
#include "hmc/host_controller.hpp"
#include "obs/epoch_sampler.hpp"
#include "obs/trace_recorder.hpp"
#include "system/config.hpp"
#include "system/results.hpp"

namespace camps::system {

class System {
 public:
  /// Takes ownership of one trace source per core
  /// (traces.size() == config.cores).
  System(const SystemConfig& config,
         std::vector<std::unique_ptr<trace::TraceSource>> traces);
  ~System();
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Runs warmup + measurement and gathers results. Call once. When
  /// cfg_.audit_every > 0, audit() runs every that-many executed events and
  /// once more at the end, and each vault audits itself at the wake that
  /// begins a refresh drain; any violation aborts via the CAMPS_ASSERT fail
  /// path with a full state dump.
  RunResults run();

  /// Audits every model structure in the system (simulator event queue,
  /// caches/MSHRs, host controller, all vaults with their banks, prefetch
  /// buffers, and scheme tables). Collects violations into `reporter`
  /// without aborting, so tests can inject corruption and inspect.
  void audit(check::AuditReporter& reporter) const;

  // Component access for examples/tests (valid after construction).
  sim::Simulator& simulator() { return sim_; }
  cache::CacheHierarchy& caches() { return *caches_; }
  hmc::HostController& memory() { return *host_; }
  const cpu::Core& core(CoreId id) const { return *cores_[id]; }
  StatRegistry& stats() { return stats_; }
  /// Instructions all cores had issued when the measurement window opened.
  u64 instructions_at_window_start() const { return instr_at_window_start_; }
  obs::TraceRecorder& trace() { return trace_; }

 private:
  class MemoryAdapter;

  void on_core_warmed(CoreId core);
  void on_core_measured(CoreId core);
  /// Runs one audit pass; aborts through check::audit_fail on violations.
  void audit_or_abort() const;
  RunResults collect_results() const;

  /// Fills one EpochSample from current device/cache state.
  obs::EpochSample sample_epoch() const;

  SystemConfig cfg_;
  sim::Simulator sim_;
  StatRegistry stats_;
  obs::TraceRecorder trace_;
  std::unique_ptr<obs::EpochSampler> epoch_sampler_;
  std::unique_ptr<hmc::HostController> host_;
  std::unique_ptr<MemoryAdapter> adapter_;
  std::unique_ptr<cache::CacheHierarchy> caches_;
  std::vector<std::unique_ptr<trace::TraceSource>> traces_;
  std::vector<std::unique_ptr<cpu::Core>> cores_;

  u32 warmed_ = 0;
  u32 measured_ = 0;
  Tick window_start_ = 0;
  Tick window_end_ = 0;
  u64 instr_at_window_start_ = 0;
  bool ran_ = false;
  bool partial_ = false;
};

/// Convenience: build a System for one of Table II's workloads.
std::unique_ptr<System> make_workload_system(const SystemConfig& config,
                                             const std::string& workload_id);

}  // namespace camps::system
