// Traced per-layer run.
//
// For every simulation of the workload it
//  1. runs the untraced System: the reference for the model counters, the
//     executed events, the final tick and host time;
//  2. assembles the same components through their public constructors
//     (Simulator, HostController, CacheHierarchy, Core, and the mix's
//     TraceSources folded into per-core slices as System does), with
//     benchmark-owned wrappers at the two interface boundaries, TraceSource
//     and cache::MemoryPort. Spans are timed around Simulator::step,
//     TraceSource::next, MemoryPort::mem_read/mem_write ->
//     HostController::read/write, and read completions, and the memory
//     request stream (tick, addr, core, type) is captured at the port;
//  3. replays that stream open-loop into a standalone HostController
//     (hmc.replay_*: the memory-side layers alone), and runs the front end
//     against a fixed-latency memory stub (front.replay_*: the
//     cpu/cache/trace layers alone).
// The traced assembly must execute exactly the reference's events and end
// at its final tick, and the replayed controller must issue exactly the
// captured reads and writes and complete every read. If any check fails,
// no per-layer number is printed.
#include "traced.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/hierarchy.hpp"
#include "common/stats.hpp"
#include "cpu/core.hpp"
#include "hmc/host_controller.hpp"
#include "sim/simulator.hpp"
#include "system/system.hpp"
#include "workload/workloads.hpp"

namespace perfbench {
namespace {

using camps::Addr;
using camps::CoreId;
using camps::Tick;
using camps::system::RunResults;
using camps::system::SystemConfig;
using camps::trace::TraceRecord;
using camps::trace::TraceSource;
using Clock = std::chrono::steady_clock;

// --- Spans ------------------------------------------------------------------

enum SpanName : u32 { kStep, kTraceNext, kSubmit, kFill, kNumSpanNames };
constexpr const char* kSpanNames[kNumSpanNames] = {"sim.step", "trace.next",
                                                   "hmc.submit", "cache.fill"};

/// Every step's span tree is timed and folded into per-name totals; one
/// step in kKeepEvery keeps its whole tree in memory for the span file, and
/// one in kSampleEvery contributes its duration to the step percentiles.
constexpr u64 kKeepEvery = 512;
constexpr u64 kSampleEvery = 4;
constexpr u32 kNoSpan = ~u32{0};

u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now().time_since_epoch())
                              .count());
}

class SpanRecorder {
 public:
  struct Totals {
    u64 count = 0;
    u64 total_ns = 0;
    u64 self_ns = 0;
  };

  void begin_sim(u32 sim) { sim_ = sim; }

  void open(SpanName name) {
    Frame f{name, now_ns(), 0, kNoSpan, false};
    if (name == kStep) {
      keep_ = steps_ % kKeepEvery == 0;
      f.sampled = steps_ % kSampleEvery == 0;
      ++steps_;
    }
    if (keep_) {
      f.kept = static_cast<u32>(spans_.size());
      spans_.push_back(Span{name, sim_,
                            stack_.empty() ? kNoSpan : stack_.back().kept,
                            f.start, 0});
    }
    stack_.push_back(f);
  }

  void close() {
    const u64 end = now_ns();
    const Frame f = stack_.back();
    stack_.pop_back();
    const u64 dur = end - f.start;
    Totals& t = totals_[f.name];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - f.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (f.kept != kNoSpan) spans_[f.kept].end = end;
    if (f.sampled) step_ns_.push_back(static_cast<double>(dur));
    if (f.name == kSubmit) submit_ns_.push_back(static_cast<double>(dur));
  }

  const Totals& totals(SpanName name) const { return totals_[name]; }
  const std::vector<double>& step_ns() const { return step_ns_; }
  const std::vector<double>& submit_ns() const { return submit_ns_; }

  /// Writes the kept span trees as CSV (times relative to the first span).
  bool write_csv(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const u64 origin = spans_.empty() ? 0 : spans_.front().start;
    std::fprintf(f, "id,name,sim,parent,start_ns,end_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu,%s,%u,%lld,%llu,%llu\n", i, kSpanNames[s.name],
                   s.sim,
                   s.parent == kNoSpan ? -1LL : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.start - origin),
                   static_cast<unsigned long long>(s.end - origin));
    }
    return std::fclose(f) == 0;
  }
  size_t kept() const { return spans_.size(); }

 private:
  struct Frame {
    SpanName name;
    u64 start;
    u64 child_ns;
    u32 kept;
    bool sampled;
  };
  struct Span {
    SpanName name;
    u32 sim;
    u32 parent;
    u64 start;
    u64 end;
  };

  std::vector<Frame> stack_;
  std::vector<Span> spans_;
  Totals totals_[kNumSpanNames];
  std::vector<double> step_ns_;
  std::vector<double> submit_ns_;
  u64 steps_ = 0;
  u32 sim_ = 0;
  bool keep_ = false;
};

// --- Boundary wrappers ------------------------------------------------------

/// The per-core virtual->physical fold System applies to every trace.
class SliceSource final : public TraceSource {
 public:
  SliceSource(std::unique_ptr<TraceSource> inner, Addr base, u64 bytes)
      : inner_(std::move(inner)), base_(base), bytes_(bytes) {}
  std::optional<TraceRecord> next() override {
    auto r = inner_->next();
    if (r) r->addr = base_ + r->addr % bytes_;
    return r;
  }
  void reset() override { inner_->reset(); }

 private:
  std::unique_ptr<TraceSource> inner_;
  Addr base_;
  u64 bytes_;
};

class TracedSource final : public TraceSource {
 public:
  TracedSource(std::unique_ptr<TraceSource> inner, SpanRecorder& rec,
               u64& records)
      : inner_(std::move(inner)), rec_(rec), records_(records) {}
  std::optional<TraceRecord> next() override {
    rec_.open(kTraceNext);
    auto r = inner_->next();
    rec_.close();
    ++records_;
    return r;
  }
  void reset() override { inner_->reset(); }

 private:
  std::unique_ptr<TraceSource> inner_;
  SpanRecorder& rec_;
  u64& records_;
};

struct Request {
  Tick tick;
  Addr addr;
  CoreId core;
  camps::AccessType type;
};

/// System's MemoryAdapter with spans and request capture.
class TracedPort final : public camps::cache::MemoryPort {
 public:
  TracedPort(camps::sim::Simulator& sim, camps::hmc::HostController& host,
             SpanRecorder& rec, std::vector<Request>& capture)
      : sim_(sim), host_(host), rec_(rec), capture_(capture) {}

  void mem_read(Addr line, CoreId core, std::function<void()> done) override {
    capture_.push_back({sim_.now(), line, core, camps::AccessType::kRead});
    rec_.open(kSubmit);
    host_.read(line, core,
               [this, done = std::move(done)](const camps::hmc::MemRequest&) {
                 rec_.open(kFill);
                 done();
                 rec_.close();
               });
    rec_.close();
  }
  void mem_write(Addr line, CoreId core) override {
    capture_.push_back({sim_.now(), line, core, camps::AccessType::kWrite});
    rec_.open(kSubmit);
    host_.write(line, core);
    rec_.close();
  }

 private:
  camps::sim::Simulator& sim_;
  camps::hmc::HostController& host_;
  SpanRecorder& rec_;
  std::vector<Request>& capture_;
};

/// Main memory as a constant delay: isolates the front end.
class FixedLatencyPort final : public camps::cache::MemoryPort {
 public:
  FixedLatencyPort(camps::sim::Simulator& sim, Tick latency)
      : sim_(sim), latency_(latency) {}
  void mem_read(Addr, CoreId, std::function<void()> done) override {
    sim_.schedule(latency_, [done = std::move(done)] { done(); });
  }
  void mem_write(Addr, CoreId) override {}

 private:
  camps::sim::Simulator& sim_;
  Tick latency_;
};

// --- Front end --------------------------------------------------------------

using SourceWrap =
    std::function<std::unique_ptr<TraceSource>(std::unique_ptr<TraceSource>)>;

/// Caches and cores over one mix's sources, wired as System wires them.
class FrontEnd {
 public:
  FrontEnd(camps::sim::Simulator& sim, const SystemConfig& cfg,
           const std::string& mix, camps::cache::MemoryPort* port,
           const SourceWrap& wrap, std::function<void()> on_window_open)
      : sim_(sim),
        cfg_(cfg),
        caches_(sim, cfg.caches, cfg.cores, port),
        on_window_open_(std::move(on_window_open)) {
    auto raw = camps::workload::workload(mix).make_sources(
        cfg.seed, cfg.pattern_geometry());
    const u64 slice = cfg.core_slice_bytes();
    for (CoreId c = 0; c < cfg.cores; ++c) {
      traces_.push_back(wrap(std::make_unique<SliceSource>(
          std::move(raw[c]), Addr{c} * slice, slice)));
      cores_.push_back(std::make_unique<camps::cpu::Core>(
          sim, c, cfg.core, traces_.back().get(), &caches_,
          [this](CoreId) {
            if (++warmed_ == cfg_.cores && on_window_open_) on_window_open_();
          },
          [this](CoreId) { ++measured_; }));
    }
  }

  camps::cache::CacheHierarchy& caches() { return caches_; }

  /// Runs until every core finished its budget, with System::run's stop
  /// rule; `step` executes one event. Returns false on the cycle bound.
  template <typename StepFn>
  bool run(StepFn step) {
    for (auto& core : cores_) core->start();
    const Tick bound = cfg_.max_cycles * camps::sim::kCpuTicksPerCycle;
    while (!sim_.queue().empty()) {
      step();
      if (measured_ == cfg_.cores) return true;
      if (sim_.now() >= bound) return false;
    }
    return measured_ == cfg_.cores;
  }

 private:
  camps::sim::Simulator& sim_;
  const SystemConfig& cfg_;
  camps::cache::CacheHierarchy caches_;
  std::function<void()> on_window_open_;
  std::vector<std::unique_ptr<TraceSource>> traces_;
  std::vector<std::unique_ptr<camps::cpu::Core>> cores_;
  u32 warmed_ = 0;
  u32 measured_ = 0;
};

// --- Replays ----------------------------------------------------------------

/// Feeds a captured request stream into a standalone HostController at the
/// captured ticks, regardless of completions (open loop).
class HmcReplay {
 public:
  HmcReplay(const SystemConfig& cfg, const std::vector<Request>& reqs)
      : host_(sim_, cfg.hmc, cfg.scheme, cfg.scheme_params, &stats_),
        reqs_(reqs) {}

  /// Host seconds of the replay, or nullopt with `why` set on a mismatch.
  /// Runs until every request is issued and every read completed; DRAM
  /// refresh keeps the queue from ever draining, so `bound` stops a replay
  /// that loses a read.
  std::optional<double> run(Tick bound, std::string& why) {
    u64 reads = 0;
    for (const auto& r : reqs_) reads += r.type == camps::AccessType::kRead;
    const auto start = Clock::now();
    if (!reqs_.empty()) sim_.schedule_at(reqs_[0].tick, [this] { feed(); });
    while ((next_ < reqs_.size() || completed_ < reads) &&
           sim_.now() < bound && sim_.step()) {
    }
    const double seconds = seconds_since(start);
    if (host_.reads_issued() != reads ||
        host_.writes_issued() != reqs_.size() - reads) {
      why = "replayed controller issued other requests than captured";
    } else if (completed_ != reads) {
      why = "replayed controller left reads incomplete";
    }
    if (!why.empty()) return std::nullopt;
    return seconds;
  }

 private:
  void feed() {
    while (next_ < reqs_.size() && reqs_[next_].tick == sim_.now()) {
      const Request& r = reqs_[next_++];
      if (r.type == camps::AccessType::kRead) {
        host_.read(r.addr, r.core,
                   [this](const camps::hmc::MemRequest&) { ++completed_; });
      } else {
        host_.write(r.addr, r.core);
      }
    }
    if (next_ < reqs_.size()) {
      sim_.schedule_at(reqs_[next_].tick, [this] { feed(); });
    }
  }

  camps::sim::Simulator sim_;
  camps::StatRegistry stats_;
  camps::hmc::HostController host_;
  const std::vector<Request>& reqs_;
  size_t next_ = 0;
  u64 completed_ = 0;
};

/// Isolated EventQueue schedule/pop throughput at a given pending depth,
/// with captures the size of the vault controller's callbacks.
double queue_micro_events_per_s(u64 depth) {
  struct Capture {
    u64* sink;
    u64 a, b, c, d, e;
    void operator()() const { *sink += a + b + c + d + e; }
  };
  constexpr u64 kEvents = 2'000'000;
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    camps::sim::EventQueue q;
    u64 x = 0x9e3779b97f4a7c15ULL, sink = 0;
    auto rnd = [&x] {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      return x >> 24;
    };
    for (u64 i = 0; i < depth; ++i) {
      q.schedule(rnd() % 1024, Capture{&sink, i, i, i, i, i});
    }
    const auto start = Clock::now();
    for (u64 i = 0; i < kEvents; ++i) {
      auto [when, fn] = q.pop();
      fn();
      q.schedule(when + 1 + rnd() % 512, Capture{&sink, i, i, i, i, i});
    }
    rates.push_back(static_cast<double>(kEvents) / seconds_since(start));
    if (sink == 1) std::printf("%llu\n", static_cast<unsigned long long>(sink));
  }
  return median(rates);
}

// --- Aggregation ------------------------------------------------------------

/// Count-weighted mean of per-run means.
struct Weighted {
  double sum = 0, weight = 0;
  void add(double mean, double count) {
    sum += mean * count;
    weight += count;
  }
  double mean() const { return weight > 0 ? sum / weight : 0.0; }
};

}  // namespace

int run_traced(const Workload& wl, u64 seed, const std::string& out_dir) {
  const auto sims = sims_of(wl);
  const auto ecfg = experiment_config(wl, seed, 1);
  SpanRecorder rec;
  std::vector<RunResults> refs;
  u64 attempted = 0, failed = 0;
  u64 ref_events = 0, trace_records = 0, reads = 0, captured_reads = 0;
  u64 instructions = 0, prefetch_dropped = 0, stall_cycles = 0;
  double core_cycles = 0, l3_fill = 0;
  double ref_s = 0, ref_loop_s = 0, traced_s = 0, workload_build_s = 0;
  double system_build_s = 0, hmc_replay_s = 0, front_replay_s = 0;
  double depth_sum = 0, depth_samples = 0;

  for (size_t i = 0; i < sims.size(); ++i) {
    const Sim& sim = sims[i];
    const SystemConfig cfg = ecfg.system_config(sim.scheme);
    std::string why;

    // 1. Untraced reference.
    const auto loop_start = Clock::now();
    auto start = Clock::now();
    auto sources = camps::workload::workload(sim.mix).make_sources(
        cfg.seed, cfg.pattern_geometry());
    workload_build_s += seconds_since(start);
    start = Clock::now();
    camps::system::System sys(cfg, std::move(sources));
    system_build_s += seconds_since(start);
    refs.push_back(sys.run());
    const RunResults& ref = refs.back();
    ref_loop_s += seconds_since(loop_start);
    ref_s += ref.wall_seconds;
    ref_events += ref.events_executed;
    reads += ref.memory_reads;
    const auto& device = sys.memory().device();
    for (camps::VaultId v = 0; v < device.vault_count(); ++v) {
      prefetch_dropped += device.vault(v).prefetches_dropped();
    }
    for (CoreId c = 0; c < cfg.cores; ++c) {
      instructions += sys.core(c).instructions_issued();
      stall_cycles += sys.core(c).stall_cycles();
    }
    const Tick ref_tick = sys.simulator().now();
    core_cycles += static_cast<double>(cfg.cores) *
                   static_cast<double>(ref_tick / camps::sim::kCpuTicksPerCycle);
    why = check_system_run(sys, ref);

    // 2. Traced assembly of the same components on identical inputs.
    rec.begin_sim(static_cast<u32>(i));
    camps::sim::Simulator tsim;
    camps::StatRegistry stats;
    camps::hmc::HostController host(tsim, cfg.hmc, cfg.scheme,
                                    cfg.scheme_params, &stats);
    std::vector<Request> capture;
    TracedPort port(tsim, host, rec, capture);
    const SourceWrap traced_wrap = [&](std::unique_ptr<TraceSource> s) {
      return std::unique_ptr<TraceSource>(
          std::make_unique<TracedSource>(std::move(s), rec, trace_records));
    };
    const double l3_lines = static_cast<double>(cfg.caches.l3.size_bytes /
                                                cfg.caches.l3.line_bytes);
    std::unique_ptr<FrontEnd> front;
    front = std::make_unique<FrontEnd>(
        tsim, cfg, sim.mix, &port, traced_wrap, [&] {
          // Window opens: System resets every statistic here.
          l3_fill += static_cast<double>(front->caches().l3_misses()) / l3_lines;
          host.reset_stats();
          front->caches().reset_stats();
          stats.reset();
        });
    tsim.set_event_hook(256, [&] {
      depth_sum += static_cast<double>(tsim.queue().size());
      depth_samples += 1;
    });
    start = Clock::now();
    front->run([&] {
      rec.open(kStep);
      tsim.step();
      rec.close();
    });
    traced_s += seconds_since(start);
    for (const auto& r : capture) {
      captured_reads += r.type == camps::AccessType::kRead;
    }
    if (why.empty() && (tsim.events_executed() != ref.events_executed ||
                        tsim.now() != ref_tick)) {
      why = "traced assembly diverged from System::run (events or final tick)";
    }

    // 3a. Memory side alone: open-loop replay of the captured stream.
    HmcReplay replay(cfg, capture);
    std::string replay_why;
    if (const auto s =
            replay.run(cfg.max_cycles * camps::sim::kCpuTicksPerCycle, replay_why)) {
      hmc_replay_s += *s;
    } else if (why.empty()) {
      why = replay_why;
    }

    // 3b. Front end alone, against memory at the run's mean read latency.
    camps::sim::Simulator fsim;
    const Tick latency =
        std::max<Tick>(1, static_cast<Tick>(std::llround(ref.mem_latency_cycles))) *
        camps::sim::kCpuTicksPerCycle;
    FixedLatencyPort stub(fsim, latency);
    FrontEnd stub_front(
        fsim, cfg, sim.mix, &stub,
        [](std::unique_ptr<TraceSource> s) { return s; }, nullptr);
    start = Clock::now();
    if (!stub_front.run([&] { fsim.step(); }) && why.empty()) {
      why = "front-end replay hit the cycle bound";
    }
    front_replay_s += seconds_since(start);

    ++attempted;
    if (!why.empty()) {
      ++failed;
      std::printf("  FAILED %s/%s: %s\n", sim.mix.c_str(),
                  camps::prefetch::to_string(sim.scheme), why.c_str());
    }
  }

  // The exp layer: the sweep workload runs its jobs through run_all at
  // jobs = nproc (which must reproduce the reference runs exactly); the
  // sequential workloads count as one job.
  double parallel_eff = ref_s / ref_loop_s;
  if (wl.sweep) {
    camps::exp::Runner runner(experiment_config(wl, seed, sweep_jobs()));
    runner.run_all(wl.mixes, wl.schemes);
    const auto& t = runner.timing();
    parallel_eff = t.run_seconds / (t.sweep_seconds * sweep_jobs());
    for (size_t i = 0; i < sims.size(); ++i) {
      ++attempted;
      if (digest(runner.results().at({sims[i].mix, sims[i].scheme})) !=
          digest(refs[i])) {
        ++failed;
        std::printf("  FAILED %s/%s: run_all result differs from System::run\n",
                    sims[i].mix.c_str(),
                    camps::prefetch::to_string(sims[i].scheme));
      }
    }
  }

  const std::string span_path = out_dir + "/perfbench-spans-" + wl.name +
                                "-seed" + std::to_string(seed) + ".csv";
  if (!rec.write_csv(span_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", span_path.c_str());
    return 2;
  }
  std::printf("  spans: %zu kept (every %llu-th step tree) in %s\n", rec.kept(),
              static_cast<unsigned long long>(kKeepEvery), span_path.c_str());
  if (failed != 0) {
    std::printf("  capture/replay or output checks failed: per-layer numbers "
                "withheld\n");
  }

  // Model counters of the reference runs.
  u64 row_hits = 0, row_empties = 0, row_conflicts = 0, prefetches = 0;
  u64 buf_hits = 0, buf_lookups = 0, writes = 0, injected = 0, replays = 0;
  u64 retries = 0, poisoned = 0;
  double useful = 0, energy = 0, mpki = 0, amat = 0, down = 0, up = 0;
  Weighted host_q, link_dn, link_up, vault_q, bank, buf_hit, recovery;
  for (const auto& r : refs) {
    row_hits += r.row_hits;
    row_empties += r.row_empties;
    row_conflicts += r.row_conflicts;
    prefetches += r.prefetches;
    useful += r.prefetch_accuracy * static_cast<double>(r.prefetches);
    buf_hits += r.buffer_hits;
    buf_lookups += r.buffer_hits + r.buffer_misses;
    writes += r.memory_writes;
    energy += r.energy_pj;
    mpki += r.mpki;
    amat += r.amat_cycles;
    down += r.link_down_utilization;
    up += r.link_up_utilization;
    const auto& l = r.latency;
    host_q.add(l.host_queue.mean, static_cast<double>(l.host_queue.count));
    link_dn.add(l.link_down.mean, static_cast<double>(l.link_down.count));
    link_up.add(l.link_up.mean, static_cast<double>(l.link_up.count));
    vault_q.add(l.vault_queue.mean, static_cast<double>(l.vault_queue.count));
    bank.add(l.bank_service.mean, static_cast<double>(l.bank_service.count));
    buf_hit.add(l.buffer_hit.mean, static_cast<double>(l.buffer_hit.count));
    injected += r.faults.injected();
    replays += r.faults.replays;
    retries += r.faults.host_retries;
    poisoned += r.faults.host_poisoned;
    recovery.add(r.faults.recovery.mean,
                 static_cast<double>(r.faults.recovery.count));
  }
  const double n = static_cast<double>(refs.size());
  const double accesses = static_cast<double>(row_hits + row_empties + row_conflicts);
  const auto& step = rec.totals(kStep);
  const auto& next = rec.totals(kTraceNext);
  const auto& submit = rec.totals(kSubmit);
  const auto& fill = rec.totals(kFill);
  const auto sec = [](u64 ns) { return static_cast<double>(ns) / 1e9; };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const std::string step_n = "n=" + std::to_string(rec.step_ns().size()) +
                             " sampled steps (1 in " +
                             std::to_string(kSampleEvery) + ")";
  const std::string submit_n =
      "n=" + std::to_string(rec.submit_ns().size()) + " submits";
  const double depth = ratio(depth_sum, depth_samples);
  const double micro = queue_micro_events_per_s(
      std::max<u64>(1, static_cast<u64>(std::llround(depth))));
  const double events_per_s = ratio(static_cast<double>(ref_events), ref_s);
  const double front_instr =
      static_cast<double>(instructions_per_sim()) * n;

  Report rp;
  // sim
  rp.add("sim.events", static_cast<double>(ref_events), "count", "reference runs");
  rp.add("sim.events_per_s", events_per_s, "1/s", "untraced System::run");
  rp.add("sim.queue_micro_events_per_s", micro, "1/s",
         "isolated EventQueue at the sampled depth; real/micro = " +
             std::to_string(ratio(events_per_s, micro)));
  rp.add("sim.queue_depth_mean", depth, "events",
         "every 256th event, n=" + std::to_string(static_cast<u64>(depth_samples)));
  rp.add("sim.step_ns_p50", percentile(rec.step_ns(), 50), "ns", step_n);
  rp.add("sim.step_ns_p99", percentile(rec.step_ns(), 99), "ns", step_n);
  rp.add("sim.self_s", sec(step.self_ns), "s",
         "step self: event loop + unwrapped vault/link/cache/core work");
  // trace / workload
  rp.add("trace.records", static_cast<double>(trace_records), "count", "traced run");
  rp.add("trace.self_s", sec(next.self_ns), "s");
  rp.add("trace.ns_per_record", ratio(static_cast<double>(next.total_ns),
                                      static_cast<double>(next.count)),
         "ns");
  rp.add("workload.build_s", workload_build_s, "s", "make_sources, summed");
  // cpu / cache
  rp.add("cpu.instructions", static_cast<double>(instructions), "count",
         "issued, warm-up included");
  rp.add("cpu.stall_frac", ratio(static_cast<double>(stall_cycles), core_cycles),
         "ratio", "sim: core-cycles stalled on a full load window");
  rp.add("cache.l3_mpki", mpki / n, "MPKI", "sim, mean over sims");
  rp.add("cache.amat_cycles", amat / n, "cycles", "sim, mean over sims");
  rp.add("cache.mem_reads", static_cast<double>(reads), "count", "sim window");
  rp.add("cache.mem_writes", static_cast<double>(writes), "count", "sim window");
  rp.add("cache.l3_fill_frac", l3_fill / n, "ratio",
         "L3 lines filled when the window opens (upper bound), mean");
  rp.add("cache.fill_self_s", sec(fill.self_ns), "s",
         "read completions: cache fill + core wake");
  rp.add("front.replay_s", front_replay_s, "s", "front end vs fixed-latency memory");
  rp.add("front.ns_per_instr", ratio(front_replay_s * 1e9, front_instr), "ns");
  // hmc
  rp.add("hmc.submit_ns_p50", percentile(rec.submit_ns(), 50), "ns", submit_n);
  rp.add("hmc.submit_ns_p99", percentile(rec.submit_ns(), 99), "ns", submit_n);
  rp.add("hmc.self_s", sec(submit.self_ns), "s", "HostController::read/write");
  rp.add("hmc.replay_s", hmc_replay_s, "s", "open-loop replay, memory side alone");
  rp.add("hmc.replay_ns_per_read",
         ratio(hmc_replay_s * 1e9, static_cast<double>(captured_reads)), "ns",
         "per captured read");
  rp.add("hmc.host_queue_cycles", host_q.mean(), "cycles", "sim wait");
  rp.add("hmc.link_down_cycles", link_dn.mean(), "cycles", "sim wait");
  rp.add("hmc.link_up_cycles", link_up.mean(), "cycles", "sim wait");
  rp.add("hmc.link_down_util", down / n, "ratio", "sim busy");
  rp.add("hmc.link_up_util", up / n, "ratio", "sim busy");
  // vault / dram
  rp.add("dram.row_hits", static_cast<double>(row_hits), "count");
  rp.add("dram.row_empties", static_cast<double>(row_empties), "count");
  rp.add("dram.row_conflicts", static_cast<double>(row_conflicts), "count");
  rp.add("dram.conflict_rate", ratio(static_cast<double>(row_conflicts), accesses),
         "ratio");
  rp.add("vault.queue_cycles", vault_q.mean(), "cycles", "sim wait");
  rp.add("dram.bank_service_cycles", bank.mean(), "cycles", "sim busy");
  // prefetch
  rp.add("prefetch.issued", static_cast<double>(prefetches), "count");
  rp.add("prefetch.dropped", static_cast<double>(prefetch_dropped), "count",
         "whole run");
  rp.add("prefetch.accuracy", ratio(useful, static_cast<double>(prefetches)),
         "ratio", "useful/issued");
  rp.add("prefetch.buffer_hit_rate",
         ratio(static_cast<double>(buf_hits), static_cast<double>(buf_lookups)),
         "ratio", "hits/lookups");
  rp.add("prefetch.buffer_hit_cycles", buf_hit.mean(), "cycles", "sim");
  // energy
  rp.add("energy.pj_per_read", ratio(energy, static_cast<double>(reads)), "pJ");
  // fault
  rp.add("fault.injected", static_cast<double>(injected), "count");
  rp.add("fault.replays", static_cast<double>(replays), "count");
  rp.add("fault.host_retries", static_cast<double>(retries), "count");
  rp.add("fault.poisoned_frac",
         ratio(static_cast<double>(poisoned), static_cast<double>(reads)), "ratio");
  rp.add("fault.recovery_cycles_mean", recovery.mean(), "cycles",
         "mean only: p95/p99 saturate the histogram");
  // exp / system / harness
  rp.add("exp.sims", n, "count");
  rp.add("exp.parallel_eff", parallel_eff, "ratio",
         wl.sweep ? "run_seconds / (sweep_seconds x jobs)" : "one job");
  rp.add("system.build_s", system_build_s, "s", "System ctor, summed");
  rp.add("bench.trace_overhead_pct", 100.0 * (ratio(traced_s, ref_s) - 1.0), "%",
         "traced vs untraced sim_mips");
  rp.add("bench.traced_s", traced_s, "s", "traced event loops");
  rp.add("bench.unattributed_s", traced_s - sec(step.total_ns), "s",
         "traced loop outside any step span");
  return rp.finish(failed == 0, attempted, failed);
}

}  // namespace perfbench
