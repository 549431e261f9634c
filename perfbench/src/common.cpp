#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "common/thread_pool.hpp"

namespace perfbench {

using camps::system::RunResults;

namespace {

// Fig. 5 of the paper: CAMPS-MOD speedup over BASE averaged per workload
// class, as transcribed in EXPERIMENTS.md ("Figure 5 - normalized speedup",
// rows "HM/LM/MX avg (paper)"). The paper reports no faulted runs.
constexpr double kPaperHm = 1.249;
constexpr double kPaperLm = 1.094;
constexpr double kPaperMx = 1.196;

// Link fault campaign of the fault workload: the rates of the
// recovery-latency reproduction in ROADMAP.md item 4.
constexpr double kLinkCrcRate = 0.001;
constexpr double kLinkDropRate = 0.0005;

const std::vector<SchemeKind> kBaseVsMod = {SchemeKind::kBase,
                                            SchemeKind::kCampsMod};

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"hm_prefetch",
       "memory-bound HM mixes: vault wakes and both CAMPS prefetch triggers "
       "dominate the events",
       {"HM1", "HM2", "HM3", "HM4"}, kBaseVsMod, false, false, kPaperHm,
       kPaperHm},
      {"lm_frontend",
       "LM mixes: events come from core steps, cache-hit completions and "
       "trace generation while vaults idle",
       {"LM1", "LM2", "LM3", "LM4"}, kBaseVsMod, false, false, kPaperLm,
       kPaperLm},
      {"mx_faults",
       "MX mixes under link CRC + drop faults: every read arms a host "
       "timeout and links replay and retry",
       {"MX1", "MX2", "MX3", "MX4"}, kBaseVsMod, true, false, 0.0, kPaperMx},
      {"mx_sweep",
       "MX mixes x the five paper schemes through exp::Runner::run_all at "
       "jobs = nproc, several Systems resident",
       {"MX1", "MX2", "MX3", "MX4"}, camps::prefetch::paper_schemes(), false,
       true, kPaperMx, kPaperMx},
  };
  return all;
}

const Workload& find_workload(const std::string& name) {
  for (const auto& wl : workloads()) {
    if (name == wl.name) return wl;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

std::vector<Sim> sims_of(const Workload& wl) {
  std::vector<Sim> sims;
  for (const auto& mix : wl.mixes) {
    for (auto scheme : wl.schemes) sims.push_back(Sim{mix, scheme});
  }
  return sims;
}

camps::exp::ExperimentConfig experiment_config(const Workload& wl, u64 seed,
                                               u32 jobs) {
  camps::exp::ExperimentConfig cfg;
  cfg.warmup_instructions = kWarmup;
  cfg.measure_instructions = kMeasure;
  cfg.seed = seed;
  cfg.jobs = jobs;
  if (wl.faults) {
    cfg.fault.link_crc_rate = kLinkCrcRate;
    cfg.fault.link_drop_rate = kLinkDropRate;
    cfg.fault.seed = seed;
  }
  return cfg;
}

u64 instructions_per_sim() {
  return (kWarmup + kMeasure) * camps::workload::kCoresPerWorkload;
}

u32 sweep_jobs() { return camps::ThreadPool::default_threads(); }

std::string check_run(const RunResults& r) {
  if (r.partial) return "partial (hit the cycle bound)";
  if (r.memory_reads == 0) return "no memory reads";
  if (!std::isfinite(r.geomean_ipc) || r.geomean_ipc <= 0.0) {
    return "IPC not finite and positive";
  }
  return "";
}

std::string check_system_run(camps::system::System& sys, const RunResults& r) {
  std::string why = check_run(r);
  if (!why.empty() || !r.faults.active) return why;
  const auto& fault = sys.memory().device().config().fault;
  auto& sim = sys.simulator();
  sim.run_until(sim.now() + fault.host_timeout_ticks + fault.host_backoff_ticks);
  const auto& stats = sys.stats();
  const u64 recovered = stats.counter_value("fault.replays") +
                        stats.counter_value("fault.host_retries") +
                        stats.counter_value("fault.host_poisoned");
  if (recovered < r.faults.injected()) return "injected faults left unrecovered";
  return "";
}

u64 digest(const RunResults& r) {
  u64 h = 1469598103934665603ULL;  // FNV-1a
  for (unsigned char c : r.to_json()) {
    h = (h ^ c) * 1099511628211ULL;
  }
  return h;
}

ModelMetrics model_metrics(const Workload& wl, const std::vector<Sim>& sims,
                           const std::vector<RunResults>& rs) {
  ModelMetrics m;
  u64 events = 0, reads = 0;
  double energy = 0, amat = 0;
  std::vector<double> ipcs;
  for (const auto& r : rs) {
    events += r.events_executed;
    reads += r.memory_reads;
    energy += r.energy_pj;
    amat += r.amat_cycles;
    ipcs.push_back(r.geomean_ipc);
  }
  m.events_per_read = static_cast<double>(events) / static_cast<double>(reads);
  m.ipc_geomean = camps::system::geometric_mean(ipcs);
  m.amat_cycles = amat / static_cast<double>(rs.size());
  m.energy_pj_per_read = energy / static_cast<double>(reads);

  std::vector<double> speedups;
  for (const auto& mix : wl.mixes) {
    double base = 0, mod = 0;
    for (size_t i = 0; i < sims.size(); ++i) {
      if (sims[i].mix != mix) continue;
      if (sims[i].scheme == SchemeKind::kBase) base = rs[i].geomean_ipc;
      if (sims[i].scheme == SchemeKind::kCampsMod) mod = rs[i].geomean_ipc;
    }
    speedups.push_back(base > 0 ? mod / base : 0.0);
  }
  m.speedup = camps::system::geometric_mean(speedups);
  m.speedup_err_pct =
      100.0 * std::fabs(m.speedup - wl.trend_speedup) / wl.trend_speedup;
  return m;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives exec and would report the
  // launching interpreter's footprint when that is larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

void Report::add(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  metrics_.push_back(Metric{name, value, unit, note, true});
}

void Report::show(const std::string& name, double value,
                  const std::string& unit, const std::string& note) {
  metrics_.push_back(Metric{name, value, unit, note, false});
}

int Report::finish(bool correct, u64 attempted, u64 failed) const {
  for (const auto& m : metrics_) {
    std::printf("  %-28s %16.6g %-10s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
    if (m.in_json && !std::isfinite(m.value)) correct = false;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  if (correct) {
    const char* sep = "";
    for (const auto& m : metrics_) {
      if (!m.in_json) continue;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                  m.name.c_str(), m.value, m.unit.c_str());
      sep = ", ";
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

void print_header(const Workload& wl, u64 seed, double seconds, bool traced) {
  const auto sims = sims_of(wl);
  std::printf("perfbench %s: seed %llu (held-out seed for gain claims: %llu), "
              "%s\n",
              wl.name, static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(kHeldOutSeed),
              traced ? "traced per-layer run of every simulation once"
                     : ("untraced end-to-end run, " +
                        std::to_string(static_cast<int>(seconds)) +
                        " s measured window")
                           .c_str());
  std::printf("  why: %s\n", wl.why);
  std::printf("  simulations: %zu = %zu mixes x %zu schemes {", sims.size(),
              wl.mixes.size(), wl.schemes.size());
  for (size_t i = 0; i < wl.schemes.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ", ",
                camps::prefetch::to_string(wl.schemes[i]));
  }
  if (wl.sweep) {
    std::printf("}, through exp::Runner::run_all at jobs=%u\n", sweep_jobs());
  } else {
    std::printf("}, one after another on one thread\n");
  }
  std::printf("  budget: %llu warm-up + %llu measured instructions per core, "
              "%u trace-driven cores per mix, closed loop (each core waits "
              "on its own misses)\n",
              static_cast<unsigned long long>(kWarmup),
              static_cast<unsigned long long>(kMeasure),
              camps::workload::kCoresPerWorkload);
  std::printf("  warm-up: caches start cold and are warmed only by the "
              "per-core warm-up; at this scale the 16 MB L3 is not full "
              "when the window opens (traced run: cache.l3_fill_frac)\n");
  if (wl.faults) {
    std::printf("  faults: link CRC rate %g + link drop rate %g per packet, "
                "fault seed = workload seed\n",
                kLinkCrcRate, kLinkDropRate);
  }
  if (wl.paper_speedup > 0) {
    std::printf("  reference: paper Fig. 5 CAMPS-MOD class average %.3f "
                "(EXPERIMENTS.md)\n",
                wl.paper_speedup);
  } else {
    std::printf("  reference: unvalidated, no reference (the paper has no "
                "faulted number); model_speedup_err_pct is printed against "
                "the fault-free MX average %.3f for trend only\n",
                wl.trend_speedup);
  }
}

}  // namespace perfbench
