// Epoch time-series sampler.
//
// Snapshots a fixed set of whole-device counters every N ticks of simulated
// time, producing the row-conflict / buffer-occupancy / link-utilization
// time series the paper's per-stage argument is about (conflict-caused bank
// time turning into buffer hits over the run, not just in the end-of-run
// totals). Samples are pure reads of simulation state — the sampler's
// events never mutate anything, so enabling it cannot change simulated
// results — and sampling stops rescheduling as soon as the supplied
// keep-going predicate turns false, so it never keeps the event queue alive
// past the measurement window.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace camps::obs {

/// One epoch snapshot. Counters are cumulative since the last stats reset
/// (the measurement-window open); rates are over the same span. Consumers
/// difference adjacent rows for per-epoch behaviour.
struct EpochSample {
  Tick tick = 0;
  u64 row_hits = 0;
  u64 row_empties = 0;
  u64 row_conflicts = 0;
  double row_conflict_rate = 0.0;
  u64 prefetches_issued = 0;
  double prefetch_accuracy = 0.0;
  u64 buffer_hits = 0;
  u64 buffer_misses = 0;
  double buffer_hit_rate = 0.0;
  u64 buffer_occupancy = 0;  ///< Rows resident across all vault buffers.
  Tick link_down_busy_ticks = 0;
  Tick link_up_busy_ticks = 0;
  u64 demand_reads = 0;
  u64 demand_writes = 0;

  /// Calls f(name, value) for every field in column order: the one list
  /// the CSV header, the CSV rows and the JSON objects are generated from.
  template <typename F>
  void for_each_field(F&& f) const {
    f("tick", tick);
    f("row_hits", row_hits);
    f("row_empties", row_empties);
    f("row_conflicts", row_conflicts);
    f("row_conflict_rate", row_conflict_rate);
    f("prefetches_issued", prefetches_issued);
    f("prefetch_accuracy", prefetch_accuracy);
    f("buffer_hits", buffer_hits);
    f("buffer_misses", buffer_misses);
    f("buffer_hit_rate", buffer_hit_rate);
    f("buffer_occupancy", buffer_occupancy);
    f("link_down_busy_ticks", link_down_busy_ticks);
    f("link_up_busy_ticks", link_up_busy_ticks);
    f("demand_reads", demand_reads);
    f("demand_writes", demand_writes);
  }
};

class EpochSampler {
 public:
  using SampleFn = std::function<EpochSample()>;
  using KeepGoingFn = std::function<bool()>;

  /// Samples every `epoch_ticks` while `keep_going()` holds. `sample()`
  /// must fill every field except `tick` (stamped by the sampler).
  EpochSampler(sim::Simulator& sim, Tick epoch_ticks, SampleFn sample,
               KeepGoingFn keep_going);

  /// Schedules the first sample one epoch from now. Call once.
  void start();

  const std::vector<EpochSample>& samples() const { return samples_; }

  // Static: RunResults carries a series across the sweep cache, sampler-less.
  /// CSV: one header row plus one row per epoch.
  static std::string series_csv(const std::vector<EpochSample>& samples);
  /// JSON: {"epoch_ticks": N, "samples": [{...}, ...]}.
  static std::string series_json(const std::vector<EpochSample>& samples,
                                 Tick epoch_ticks, int indent = 0);

 private:
  void fire();

  sim::Simulator& sim_;
  Tick epoch_ticks_;
  SampleFn sample_;
  KeepGoingFn keep_going_;
  std::vector<EpochSample> samples_;
};

}  // namespace camps::obs
