// Shared pieces of the simulator benchmark: the workload definitions, the
// per-simulation output checks, the model (simulated-system) metrics and
// the metric report every mode prints.
//
// The benchmark drives the simulator only through its public API
// (workload::Workload::make_sources, system::System, exp::Runner) and
// derives every input from the --seed argument: the workload seed of each
// Table II mix and, under faults, the fault-plan seed.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "system/system.hpp"
#include "system/results.hpp"

namespace perfbench {

using camps::u32;
using camps::u64;
using camps::prefetch::SchemeKind;

/// Per-core instruction budget of every simulation. Caches start cold and
/// are warmed only by kWarmup; at this scale the 16 MB L3 is far from full
/// when the measurement window opens (the traced run reports how far).
inline constexpr u64 kWarmup = 10'000;
inline constexpr u64 kMeasure = 50'000;

/// Seed kept out of every tuning run; a later gain claim must also hold
/// on it.
inline constexpr u64 kHeldOutSeed = 7919;

struct Workload {
  const char* name;
  const char* why;
  std::vector<std::string> mixes;
  std::vector<SchemeKind> schemes;
  bool faults;        ///< Seeded link CRC + link-drop campaign.
  bool sweep;         ///< Run through exp::Runner::run_all at jobs = nproc.
  double paper_speedup;     ///< Fig. 5 CAMPS-MOD class average; 0 = none.
  double trend_speedup;     ///< Reference the error is printed against.
};

/// One (mix, scheme) simulation of a workload.
struct Sim {
  std::string mix;
  SchemeKind scheme;
};

const std::vector<Workload>& workloads();
/// Throws std::invalid_argument for an unknown name.
const Workload& find_workload(const std::string& name);

std::vector<Sim> sims_of(const Workload& wl);

/// Experiment scale shared by every simulation of the workload.
camps::exp::ExperimentConfig experiment_config(const Workload& wl, u64 seed,
                                               u32 jobs);

/// Instructions each simulation is asked to execute, warm-up included.
u64 instructions_per_sim();

/// Worker threads of the sweep workload (the host's hardware threads).
u32 sweep_jobs();

/// Empty when the run passed every output check, else the first failure.
/// A fault run's recovery ledger is checked by check_system_run().
std::string check_run(const camps::system::RunResults& r);

/// check_run(), plus the recovery ledger of a fault campaign: `sys` runs
/// on for one host timeout past the end of its window, the longest a fault
/// injected in the window waits before it is counted as a replay, retry or
/// poisoned completion; then every injected fault must be accounted for.
std::string check_system_run(camps::system::System& sys,
                             const camps::system::RunResults& r);

/// Stable digest of a run's deterministic JSON export.
u64 digest(const camps::system::RunResults& r);

/// Simulated-system metrics over the workload's simulations, which are in
/// sims_of() order. Deterministic for a fixed seed.
struct ModelMetrics {
  double events_per_read = 0;
  double ipc_geomean = 0;
  double amat_cycles = 0;
  double speedup = 0;
  double speedup_err_pct = 0;
  double energy_pj_per_read = 0;
};
ModelMetrics model_metrics(const Workload& wl, const std::vector<Sim>& sims,
                           const std::vector<camps::system::RunResults>& rs);

double seconds_since(std::chrono::steady_clock::time_point start);
double median(std::vector<double> v);
/// Nearest-rank percentile (0 < p <= 100) of `v`; 0 when empty.
double percentile(std::vector<double> v, double p);
/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Named metrics with units, printed as a readable table and then as the
/// final one-line JSON object.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  /// A metric of the readable table only, left out of the JSON result.
  void show(const std::string& name, double value, const std::string& unit,
            const std::string& note);
  /// Prints the table, then the result line; returns the process exit code.
  int finish(bool correct, u64 attempted, u64 failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
    bool in_json;
  };
  std::vector<Metric> metrics_;
};

void print_header(const Workload& wl, u64 seed, double seconds, bool traced);

}  // namespace perfbench
