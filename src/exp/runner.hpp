// Experiment runner: executes (workload x scheme x variant) simulations,
// caches the results in-process, and offers the normalizations the paper's
// figures report (speedup vs BASE, geometric means per workload class).
// run_all() is the only way to run a sweep: every figure, ablation and
// extension bench is a list of Jobs through it.
//
// Sweeps parallelize across simulations: run_all() fans independent runs
// out over a thread pool (each run owns a private System; nothing mutable
// is shared), then merges results into the cache on the calling thread.
// A run's result depends only on (config, workload, seed) — never on
// scheduling order — so jobs=N and jobs=1 produce identical tables.
#pragma once

#include <compare>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_config.hpp"
#include "obs/obs_config.hpp"
#include "system/system.hpp"
#include "workload/workloads.hpp"

namespace camps::exp {

struct ExperimentConfig {
  /// Per-run simulation scale. Full Table I system; the instruction budget
  /// trades bench runtime for statistical stability.
  u64 warmup_instructions = 200'000;
  u64 measure_instructions = 1'000'000;
  u64 seed = 1;
  u64 max_cycles = 400'000'000;
  /// Model self-audit interval in executed events (0 = off); copied into
  /// every run's SystemConfig. Benches arm it with --audit.
  u64 audit_every = 0;
  bool verbose = false;  ///< Print one progress line per run to stderr.

  /// Worker threads for parallel sweeps; 0 = all hardware threads.
  u32 jobs = 0;

  /// Observability knobs copied into every run's SystemConfig (tracing and
  /// epoch sampling are per-System, so sweeps stay deterministic).
  obs::ObsConfig obs;

  /// Fault-injection campaign copied into every run's SystemConfig.
  /// Decisions are a pure function of (seed, site, unit, sequence), so a
  /// fault campaign is as --jobs-invariant as a fault-free sweep.
  fault::FaultConfig fault;

  /// Builds the Table I SystemConfig for one scheme under this experiment
  /// scale. Hook point for ablations: tweak the returned config.
  system::SystemConfig system_config(prefetch::SchemeKind scheme) const;
};

/// One simulation closure; must be independent of every other entry in the
/// same batch (no shared mutable state).
using SimFn = std::function<system::RunResults()>;

/// Executes independent simulations on `jobs` worker threads (0 = all
/// hardware threads) and returns their results in input order. Results are
/// deterministic: scheduling order cannot affect any entry.
std::vector<system::RunResults> run_parallel(std::vector<SimFn> sims,
                                             u32 jobs);

/// Host-side cost of the simulations a Runner executed (cache misses only).
struct SweepTiming {
  u64 runs = 0;             ///< Simulations actually executed.
  u64 events = 0;           ///< Simulator events dispatched across them.
  double run_seconds = 0;   ///< Summed per-run wall time (~CPU time).
  double sweep_seconds = 0; ///< Wall-clock spent inside run_all()/result().
  double events_per_second() const {
    return run_seconds > 0 ? static_cast<double>(events) / run_seconds : 0.0;
  }
};

/// An ablation point: `edit` applied on top of
/// ExperimentConfig::system_config(scheme), named by a short `label`
/// ("threshold=4"). The default (empty label, no edit) is the Table I point.
struct Variant {
  std::string label;
  std::function<void(system::SystemConfig&)> edit;
};

class Runner {
 public:
  explicit Runner(const ExperimentConfig& config = {});

  /// Cache key of a run: `first` is the workload, `second` the scheme (the
  /// key before variants existed, so `results().at({w, scheme})` still
  /// finds a default run) and `variant` its Variant's label.
  struct Key : std::pair<std::string, prefetch::SchemeKind> {
    Key(std::string workload, prefetch::SchemeKind scheme,
        std::string variant_label = {})
        : pair(std::move(workload), scheme),
          variant(std::move(variant_label)) {}
    std::string variant;
    auto operator<=>(const Key&) const = default;
  };

  /// One unit of sweep work. `workload` is a Table II id, or a single
  /// benchmark name when `solo` is set (the fairness-metric denominator).
  struct Job {
    std::string workload;
    prefetch::SchemeKind scheme;
    Variant variant = {};
    bool solo = false;
    Key key() const { return {workload, scheme, variant.label}; }
  };

  /// "workload/SCHEME", plus "@label" for a non-default variant: the run's
  /// name in --stats-json, --trace-out and progress lines.
  static std::string run_name(const Key& key);

  /// Runs every not-yet-cached job in parallel (config().jobs workers) and
  /// caches the results. Later result()/speedup()/solo_ipc() calls on these
  /// keys are cache hits, so benches front-load their whole sweep here.
  /// A key requested again with a SystemConfig that differs from its cached
  /// run's (one label, two edits) aborts: the cache never returns the
  /// wrong run.
  void run_all(const std::vector<Job>& jobs);

  /// Convenience: the (workloads x schemes) cross product.
  void run_all(const std::vector<std::string>& workloads,
               const std::vector<prefetch::SchemeKind>& schemes);

  /// The (workloads x schemes x variants) jobs, workload-major.
  static std::vector<Job> cross(
      const std::vector<std::string>& workloads,
      const std::vector<prefetch::SchemeKind>& schemes,
      const std::vector<Variant>& variants = {Variant{}});

  /// Runs (or returns the cached) simulation of `workload` under `scheme`
  /// and `variant`.
  const system::RunResults& result(const std::string& workload,
                                   prefetch::SchemeKind scheme,
                                   const Variant& variant = {});

  /// Speedup of `scheme` under `variant` over the default `baseline` run
  /// on one workload (IPC geomeans).
  double speedup(const std::string& workload, prefetch::SchemeKind scheme,
                 prefetch::SchemeKind baseline, const Variant& variant = {});

  /// Geometric mean of per-workload speedups across `workloads`.
  double mean_speedup(const std::vector<std::string>& workloads,
                      prefetch::SchemeKind scheme,
                      prefetch::SchemeKind baseline);

  /// IPC of `benchmark` running alone on a single-core Table I system
  /// under `scheme` (cached). The denominator of the multiprogramming
  /// fairness metrics.
  double solo_ipc(const std::string& benchmark, prefetch::SchemeKind scheme);

  /// Weighted speedup of a mix: sum_i IPC_i / soloIPC_i (system throughput
  /// in "jobs' worth of progress"; Snavely & Tullsen, ASPLOS 2000).
  double weighted_speedup(const std::string& workload,
                          prefetch::SchemeKind scheme);

  /// Harmonic mean of per-core speedups: N / sum_i (soloIPC_i / IPC_i) —
  /// balances throughput and fairness (Luo et al., ISPASS 2001).
  double harmonic_speedup(const std::string& workload,
                          prefetch::SchemeKind scheme);

  const ExperimentConfig& config() const { return cfg_; }

  /// Accumulated host-side cost of every simulation this runner executed.
  const SweepTiming& timing() const { return timing_; }

  using Cache = std::map<Key, system::RunResults>;

  /// Every cached (workload, scheme, variant) -> results entry, in
  /// deterministic map order. The exporters (--stats-json, --trace-out)
  /// iterate this.
  const Cache& results() const { return cache_; }

  /// All Table II ids, in paper order.
  static std::vector<std::string> all_workloads();
  /// Ids of one class ("HM", "LM", "MX").
  static std::vector<std::string> workloads_of(workload::WorkloadClass cls);

 private:
  /// Builds the simulation closure for one uncached job.
  SimFn make_sim(const Job& job, const system::SystemConfig& sys_cfg) const;

  ExperimentConfig cfg_;
  SweepTiming timing_;
  Cache cache_;
  std::map<Key, double> solo_cache_;
  /// The SystemConfig of every requested run, keyed by (solo, key).
  std::map<std::pair<bool, Key>, system::SystemConfig> built_;
};

}  // namespace camps::exp
