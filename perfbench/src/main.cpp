// Simulator benchmark program.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1 --out-dir=DIR
//
// --trace=0 is the untraced end-to-end run: it repeats the workload's
// simulations until --seconds have passed (at least twice, so every run's
// digest is compared with its repetition), times System construction
// several times (setup_s), and reports host speed next to the simulated
// system's metrics. --trace=1 is the separate traced run of traced.cpp.
// The last line of standard output is the JSON result.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common.hpp"
#include "traced.hpp"

namespace perfbench {
namespace {

using camps::system::RunResults;
using Clock = std::chrono::steady_clock;

constexpr int kSetupReps = 15;
constexpr size_t kMinReps = 2;

/// Seconds spent building the sources and the System of every simulation.
/// The Systems stay alive until all are built, so each one is built in
/// fresh memory, as in a new process.
double time_setup(const Workload& wl, const std::vector<Sim>& sims, u64 seed) {
  const auto ecfg = experiment_config(wl, seed, 1);
  double total = 0;
  std::vector<std::unique_ptr<camps::system::System>> built;
  for (const auto& sim : sims) {
    const auto cfg = ecfg.system_config(sim.scheme);
    const auto start = Clock::now();
    auto sources = camps::workload::workload(sim.mix).make_sources(
        cfg.seed, cfg.pattern_geometry());
    built.push_back(
        std::make_unique<camps::system::System>(cfg, std::move(sources)));
    total += seconds_since(start);
  }
  return total;
}

/// One repetition of the workload: results in sims order, plus the host
/// seconds the simulations took (System::run, or run_all for the sweep).
/// Every System of a repetition stays alive until the repetition ends, so
/// each simulation runs in fresh memory: a reused block's cache placement
/// would otherwise set the speed of every simulation of the process.
struct Rep {
  std::vector<RunResults> results;
  std::vector<std::string> failures;  ///< Per simulation; empty = passed.
  double seconds = 0;
};

Rep run_rep(const Workload& wl, const std::vector<Sim>& sims, u64 seed,
            u32 jobs) {
  Rep rep;
  if (wl.sweep) {
    camps::exp::Runner runner(experiment_config(wl, seed, jobs));
    const auto start = Clock::now();
    runner.run_all(wl.mixes, wl.schemes);
    rep.seconds = seconds_since(start);
    for (const auto& sim : sims) {
      rep.results.push_back(runner.results().at({sim.mix, sim.scheme}));
      rep.failures.push_back(check_run(rep.results.back()));
    }
    return rep;
  }
  const auto ecfg = experiment_config(wl, seed, 1);
  std::vector<std::unique_ptr<camps::system::System>> alive;
  for (const auto& sim : sims) {
    alive.push_back(camps::system::make_workload_system(
        ecfg.system_config(sim.scheme), sim.mix));
    camps::system::System* sys = alive.back().get();
    rep.results.push_back(sys->run());
    rep.seconds += rep.results.back().wall_seconds;
    rep.failures.push_back(check_system_run(*sys, rep.results.back()));
  }
  return rep;
}

int run_end_to_end(const Workload& wl, u64 seed, double seconds) {
  const auto sims = sims_of(wl);
  u64 attempted = 0, failed = 0;
  std::vector<u64> digests;
  std::vector<RunResults> first;
  auto check = [&](const Rep& rep, const char* what) {
    const auto& results = rep.results;
    for (size_t i = 0; i < results.size(); ++i) {
      ++attempted;
      std::string why = rep.failures[i];
      const u64 d = digest(results[i]);
      if (digests.size() < results.size()) {
        digests.push_back(d);
      } else if (d != digests[i]) {
        why = std::string("digest differs from the first run (") + what + ")";
      }
      if (!why.empty()) {
        ++failed;
        std::printf("  FAILED %s/%s: %s\n", sims[i].mix.c_str(),
                    camps::prefetch::to_string(sims[i].scheme), why.c_str());
      }
    }
  };

  // sim_mips takes each simulation's fastest repetition (the whole sweep's
  // for mx_sweep): on a shared host, interference only ever slows a run.
  const u32 jobs = wl.sweep ? sweep_jobs() : 1;
  const double instr = static_cast<double>(instructions_per_sim() * sims.size());
  std::vector<double> mips;
  double rss_mb = 0;
  std::vector<double> best(wl.sweep ? 1 : sims.size(),
                           std::numeric_limits<double>::infinity());
  const auto window = Clock::now();
  while (mips.size() < kMinReps || seconds_since(window) < seconds) {
    Rep rep = run_rep(wl, sims, seed, jobs);
    check(rep, "repetition");
    mips.push_back(instr / rep.seconds / 1e6);
    for (size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], wl.sweep ? rep.seconds
                                           : rep.results[i].wall_seconds);
    }
    if (first.empty()) {
      // One repetition's footprint; later ones only add heap fragmentation.
      rss_mb = peak_rss_mb();
      first = std::move(rep.results);
    }
  }
  if (wl.sweep) check(run_rep(wl, sims, seed, 1), "jobs=1");
  std::vector<double> setup;
  for (int i = 0; i < kSetupReps; ++i) setup.push_back(time_setup(wl, sims, seed));

  const ModelMetrics m = model_metrics(wl, sims, first);
  const auto range = [](const std::vector<double>& v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, " [%.4g..%.4g]",
                  *std::min_element(v.begin(), v.end()),
                  *std::max_element(v.begin(), v.end()));
    return std::string(buf);
  };
  const std::string reps =
      "n=" + std::to_string(mips.size()) + " reps" + range(mips);
  Report report;
  report.add("setup_s", median(setup), "s",
             "median of " + std::to_string(kSetupReps) +
                 " x (make_sources + System ctor) summed over sims" +
                 range(setup));
  report.add("sim_mips",
             instr / std::accumulate(best.begin(), best.end(), 0.0) / 1e6,
             "Minstr/s",
             "best of " + reps + (wl.sweep ? " of run_all" : " of System::run"));
  report.add("events_per_read", m.events_per_read, "events", "sim");
  report.add("peak_rss_mb", rss_mb, "MB",
             wl.sweep ? "host, first run_all at jobs=" + std::to_string(jobs)
                      : "host, first repetition, its Systems all alive");
  report.add("model_ipc_geomean", m.ipc_geomean, "IPC", "sim");
  report.add("model_amat_cycles", m.amat_cycles, "cycles", "sim");
  report.add("model_speedup", m.speedup, "ratio",
             "sim, geomean IPC(CAMPS-MOD)/IPC(BASE) over mixes");
  // A distance to a constant and a count that is zero when healthy: both
  // are shown but left out of the JSON, whose metrics carry relative bounds.
  report.show("model_speedup_err_pct", m.speedup_err_pct, "%",
              wl.paper_speedup > 0 ? "vs paper Fig. 5 class average"
                                   : "unvalidated, no reference (trend only)");
  report.add("model_energy_pj_per_read", m.energy_pj_per_read, "pJ", "sim");
  report.show("failed_frac",
              static_cast<double>(failed) / static_cast<double>(attempted),
              "ratio",
              std::to_string(failed) + " of " + std::to_string(attempted) +
                  " simulations failed (JSON: failed/attempted)");
  return report.finish(failed == 0, attempted, failed);
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload=NAME --seed=N --seconds=S "
               "[--trace=0|1] [--out-dir=DIR]\nworkloads:",
               argv0);
  for (const auto& wl : workloads()) std::fprintf(stderr, " %s", wl.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Keep freed memory in the process. Whether the allocator hands it back
  // depends on the heap layout, and faulting it in again made set-up times
  // of one workload differ twofold between runs.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  std::string workload, out_dir = ".";
  u64 seed = 0;
  double seconds = 0;
  int trace = 0;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) usage(argv[0]);
    const std::string key = arg.substr(2, eq - 2), value = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      workload = value;
    } else if (key == "seed") {
      seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = true;
    } else if (key == "seconds") {
      seconds = std::strtod(value.c_str(), &end);
    } else if (key == "trace") {
      trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (key == "out-dir") {
      out_dir = value;
    } else {
      usage(argv[0]);
    }
    if (end != nullptr && (*end != '\0' || value.empty())) usage(argv[0]);
  }
  if (workload.empty() || !have_seed || !(seconds > 0) ||
      (trace != 0 && trace != 1)) {
    usage(argv[0]);
  }
  try {
    const Workload& wl = find_workload(workload);
    print_header(wl, seed, seconds, trace == 1);
    std::fflush(stdout);
    return trace == 1 ? run_traced(wl, seed, out_dir)
                      : run_end_to_end(wl, seed, seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
