#include "system/results.hpp"

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace camps::system {

namespace {

void write_stage(JsonWriter& w, const char* name, const StageStats& s) {
  w.key(name);
  w.begin_object();
  w.field("count", s.count);
  w.field("mean", s.mean);
  w.field("p50", s.p50);
  w.field("p95", s.p95);
  w.field("p99", s.p99);
  w.end_object();
}

}  // namespace

StageStats stage_stats(const Histogram& h) {
  return {h.count(), h.mean(), h.percentile(50.0), h.percentile(95.0),
          h.percentile(99.0)};
}

double geometric_mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) {
    if (v <= 0.0) return 0.0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::string RunResults::summary() const {
  std::ostringstream out;
  out << "scheme           : " << scheme << (partial ? "  [PARTIAL]" : "")
      << '\n';
  out << "geomean IPC      : " << geomean_ipc << '\n';
  out << "AMAT (cycles)    : " << amat_cycles << '\n';
  out << "mem lat (cycles) : " << mem_latency_cycles << '\n';
  out << "L3 MPKI          : " << mpki << '\n';
  out << "row hit/empty/conf: " << row_hits << " / " << row_empties << " / "
      << row_conflicts << "  (conflict rate " << row_conflict_rate * 100.0
      << "%)\n";
  out << "prefetches       : " << prefetches << "  accuracy "
      << prefetch_accuracy * 100.0 << "%\n";
  out << "buffer hit rate  : " << buffer_hit_rate * 100.0 << "%  (" << buffer_hits
      << " hits)\n";
  out << "memory rd/wr     : " << memory_reads << " / " << memory_writes
      << '\n';
  out << "HMC energy (uJ)  : " << energy_pj / 1e6 << '\n';
  out << "link util dn/up  : " << link_down_utilization * 100.0 << "% / "
      << link_up_utilization * 100.0 << "%\n";
  if (latency.total_read.count > 0) {
    out << "latency breakdown (CPU cycles, mean / p95):\n";
    for (const auto& [name, stage] : kLatencyStages) {
      const StageStats& s = latency.*stage;
      if (s.count == 0) continue;
      out << "  " << name << " : " << s.mean << " / " << s.p95 << "  ("
          << s.count << " samples)\n";
    }
  }
  if (faults.active) {
    out << "faults injected  : " << faults.injected() << "  (crc "
        << faults.crc_errors << ", drops "
        << faults.link_drops + faults.xbar_drops << ", stalls "
        << faults.vault_stalls << ")\n";
    out << "fault recovery   : " << faults.replays << " replays, "
        << faults.host_retries << " retries, " << faults.host_poisoned
        << " poisoned, " << faults.degrade_flushes << " degrade flushes\n";
    if (faults.recovery.count > 0) {
      out << "recovery latency : " << faults.recovery.mean << " / "
          << faults.recovery.p95 << " cycles (mean / p95, "
          << faults.recovery.count << " samples)\n";
    }
  }
  return out.str();
}

std::string RunResults::to_json(int indent) const {
  JsonWriter w(indent);
  w.begin_object();
  w.field("scheme", scheme);
  w.field("geomean_ipc", geomean_ipc);
  w.field("amat_cycles", amat_cycles);
  w.field("mem_latency_cycles", mem_latency_cycles);
  w.field("mpki", mpki);
  w.field("row_hits", row_hits);
  w.field("row_empties", row_empties);
  w.field("row_conflicts", row_conflicts);
  w.field("row_conflict_rate", row_conflict_rate);
  w.field("prefetches", prefetches);
  w.field("prefetch_accuracy", prefetch_accuracy);
  w.field("buffer_hits", buffer_hits);
  w.field("buffer_misses", buffer_misses);
  w.field("buffer_hit_rate", buffer_hit_rate);
  w.field("energy_pj", energy_pj);
  w.field("link_down_utilization", link_down_utilization);
  w.field("link_up_utilization", link_up_utilization);
  w.field("link_wakeups", link_wakeups);
  w.field("memory_reads", memory_reads);
  w.field("memory_writes", memory_writes);
  w.field("measure_span_ticks", measure_span_ticks);
  w.field("partial", partial);
  w.field("events_executed", events_executed);
  w.key("events_by_source");
  w.begin_object();
  for (size_t i = 0; i < sim::kEventSources; ++i) {
    w.field(sim::kEventSourceNames[i], events_by_source[i]);
  }
  w.end_object();
  w.key("cores");
  w.begin_array();
  for (const auto& core : cores) {
    w.begin_object();
    w.field("ipc", core.ipc);
    w.field("instructions", core.instructions);
    w.field("loads", core.loads);
    w.field("stores", core.stores);
    w.field("stall_cycles", core.stall_cycles);
    w.end_object();
  }
  w.end_array();
  w.key("latency");
  w.begin_object();
  for (const auto& [name, stage] : kLatencyStages) {
    write_stage(w, name, latency.*stage);
  }
  w.end_object();
  w.field("trace_recorded", trace_recorded);
  w.field("trace_dropped", trace_dropped);
  if (faults.active) {
    // Emitted only under fault injection so fault-free JSON stays
    // byte-identical to output from before the subsystem existed.
    w.key("faults");
    w.begin_object();
    w.field("injected", faults.injected());
    for (const auto& [name, value] : kFaultCounters) {
      w.field(name, faults.*value);
    }
    write_stage(w, "recovery", faults.recovery);
    w.end_object();
  }
  w.end_object();
  return w.str();
}

}  // namespace camps::system
