#include "exp/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/thread_pool.hpp"

namespace camps::exp {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

system::SystemConfig ExperimentConfig::system_config(
    prefetch::SchemeKind scheme) const {
  system::SystemConfig cfg = system::table1_config(scheme);
  cfg.core.warmup_instructions = warmup_instructions;
  cfg.core.measure_instructions = measure_instructions;
  cfg.seed = seed;
  cfg.max_cycles = max_cycles;
  cfg.audit_every = audit_every;
  cfg.obs = obs;
  cfg.hmc.fault = fault;
  return cfg;
}

std::vector<system::RunResults> run_parallel(std::vector<SimFn> sims,
                                             u32 jobs) {
  std::vector<system::RunResults> results(sims.size());
  if (sims.empty()) return results;
  if (jobs == 0) jobs = ThreadPool::default_threads();
  jobs = std::min<u32>(jobs, static_cast<u32>(sims.size()));

  if (jobs <= 1) {
    // No point spinning up workers for a serial sweep; same results either
    // way (each sim is self-contained), just less overhead.
    for (size_t i = 0; i < sims.size(); ++i) results[i] = sims[i]();
    return results;
  }

  ThreadPool pool(jobs);
  for (size_t i = 0; i < sims.size(); ++i) {
    pool.submit([&results, &sims, i] { results[i] = sims[i](); });
  }
  pool.wait_idle();
  return results;
}

Runner::Runner(const ExperimentConfig& config) : cfg_(config) {}

std::string Runner::run_name(const Key& key) {
  std::string name = key.first + "/" + prefetch::to_string(key.second);
  if (!key.variant.empty()) name += "@" + key.variant;
  return name;
}

SimFn Runner::make_sim(const Job& job,
                       const system::SystemConfig& sys_cfg) const {
  // Everything a worker needs is captured by value; the only state a sim
  // touches afterwards is its own System.
  const std::string name = run_name(job.key()) + (job.solo ? " (solo)" : "");
  return [sys_cfg, workload = job.workload, solo = job.solo,
          seed = cfg_.seed, name, verbose = cfg_.verbose] {
    if (verbose) progress_line("[run] %s ...", name.c_str());
    std::unique_ptr<system::System> sys;
    if (solo) {
      std::vector<std::unique_ptr<trace::TraceSource>> sources;
      sources.push_back(trace::benchmark(workload).make_source(
          seed * 1000003 + 1, sys_cfg.pattern_geometry()));
      sys = std::make_unique<system::System>(sys_cfg, std::move(sources));
    } else {
      sys = system::make_workload_system(sys_cfg, workload);
    }
    auto results = sys->run();
    if (results.partial && verbose) {
      progress_line("[run] %s hit the cycle bound (partial)", name.c_str());
    }
    return results;
  };
}

void Runner::run_all(const std::vector<Job>& jobs) {
  // Record each new key's SystemConfig and drop repeats, preserving
  // first-seen order. A repeat must rebuild the same config: a label
  // reused with a different edit would otherwise read the other run.
  std::vector<std::pair<const Job*, const system::SystemConfig*>> todo;
  for (const auto& job : jobs) {
    system::SystemConfig sys_cfg = cfg_.system_config(job.scheme);
    if (job.variant.edit) job.variant.edit(sys_cfg);
    if (job.solo) sys_cfg.cores = 1;
    const auto [it, inserted] =
        built_.try_emplace({job.solo, job.key()}, std::move(sys_cfg));
    if (inserted) {
      todo.emplace_back(&job, &it->second);
    } else if (!(it->second == sys_cfg)) {
      std::fprintf(stderr,
                   "exp::Runner: %s requested with a different SystemConfig "
                   "than its cached run\n",
                   run_name(job.key()).c_str());
      std::abort();
    }
  }
  if (todo.empty()) return;

  const auto sweep_start = std::chrono::steady_clock::now();
  std::vector<SimFn> sims;
  sims.reserve(todo.size());
  for (const auto& [job, sys_cfg] : todo) {
    sims.push_back(make_sim(*job, *sys_cfg));
  }
  auto results = run_parallel(std::move(sims), cfg_.jobs);

  // Merge on the calling thread: by here every worker is done, so the
  // cache never sees concurrent writers and a key is inserted exactly once.
  for (size_t i = 0; i < todo.size(); ++i) {
    const Job& job = *todo[i].first;
    timing_.runs += 1;
    timing_.events += results[i].events_executed;
    timing_.run_seconds += results[i].wall_seconds;
    if (job.solo) {
      solo_cache_.emplace(job.key(), results[i].cores[0].ipc);
    } else {
      cache_.emplace(job.key(), std::move(results[i]));
    }
  }
  timing_.sweep_seconds += seconds_since(sweep_start);
}

void Runner::run_all(const std::vector<std::string>& workloads,
                     const std::vector<prefetch::SchemeKind>& schemes) {
  run_all(cross(workloads, schemes));
}

std::vector<Runner::Job> Runner::cross(
    const std::vector<std::string>& workloads,
    const std::vector<prefetch::SchemeKind>& schemes,
    const std::vector<Variant>& variants) {
  std::vector<Job> jobs;
  for (const auto& w : workloads) {
    for (auto scheme : schemes) {
      for (const auto& v : variants) jobs.push_back(Job{w, scheme, v});
    }
  }
  return jobs;
}

const system::RunResults& Runner::result(const std::string& workload,
                                         prefetch::SchemeKind scheme,
                                         const Variant& variant) {
  const Job job{workload, scheme, variant};
  run_all({job});
  return cache_.at(job.key());
}

double Runner::speedup(const std::string& workload,
                       prefetch::SchemeKind scheme,
                       prefetch::SchemeKind baseline,
                       const Variant& variant) {
  const double base_ipc = result(workload, baseline).geomean_ipc;
  const double ipc = result(workload, scheme, variant).geomean_ipc;
  return base_ipc <= 0.0 ? 0.0 : ipc / base_ipc;
}

double Runner::mean_speedup(const std::vector<std::string>& workloads,
                            prefetch::SchemeKind scheme,
                            prefetch::SchemeKind baseline) {
  std::vector<double> speedups;
  speedups.reserve(workloads.size());
  for (const auto& w : workloads) {
    speedups.push_back(speedup(w, scheme, baseline));
  }
  return system::geometric_mean(speedups);
}

double Runner::solo_ipc(const std::string& benchmark,
                        prefetch::SchemeKind scheme) {
  run_all({Job{benchmark, scheme, {}, true}});
  return solo_cache_.at(Key(benchmark, scheme));
}

double Runner::weighted_speedup(const std::string& workload,
                                prefetch::SchemeKind scheme) {
  const auto& mix = workload::workload(workload);
  const auto& results = result(workload, scheme);
  double sum = 0.0;
  for (u32 c = 0; c < workload::kCoresPerWorkload; ++c) {
    const double solo = solo_ipc(mix.benchmarks[c], scheme);
    if (solo > 0.0) sum += results.cores[c].ipc / solo;
  }
  return sum;
}

double Runner::harmonic_speedup(const std::string& workload,
                                prefetch::SchemeKind scheme) {
  const auto& mix = workload::workload(workload);
  const auto& results = result(workload, scheme);
  double denom = 0.0;
  for (u32 c = 0; c < workload::kCoresPerWorkload; ++c) {
    const double solo = solo_ipc(mix.benchmarks[c], scheme);
    const double ipc = results.cores[c].ipc;
    if (ipc <= 0.0) return 0.0;
    denom += solo / ipc;
  }
  return denom == 0.0
             ? 0.0
             : static_cast<double>(workload::kCoresPerWorkload) / denom;
}

std::vector<std::string> Runner::all_workloads() {
  std::vector<std::string> out;
  for (const auto& w : workload::table2_workloads()) out.push_back(w.id);
  return out;
}

std::vector<std::string> Runner::workloads_of(workload::WorkloadClass cls) {
  std::vector<std::string> out;
  for (const auto& w : workload::table2_workloads()) {
    if (w.cls == cls) out.push_back(w.id);
  }
  return out;
}

}  // namespace camps::exp
