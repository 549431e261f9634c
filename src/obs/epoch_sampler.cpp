#include "obs/epoch_sampler.hpp"

#include <sstream>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/json.hpp"

namespace camps::obs {

EpochSampler::EpochSampler(sim::Simulator& sim, Tick epoch_ticks,
                           SampleFn sample, KeepGoingFn keep_going)
    : sim_(sim),
      epoch_ticks_(epoch_ticks),
      sample_(std::move(sample)),
      keep_going_(std::move(keep_going)) {
  CAMPS_ASSERT(epoch_ticks_ > 0);
}

void EpochSampler::start() {
  sim_.schedule(epoch_ticks_, [this] { fire(); }, sim::EventSource::kEpoch);
}

void EpochSampler::fire() {
  if (keep_going_ && !keep_going_()) return;
  EpochSample s = sample_();
  s.tick = sim_.now();
  samples_.push_back(s);
  sim_.schedule(epoch_ticks_, [this] { fire(); }, sim::EventSource::kEpoch);
}

std::string EpochSampler::series_csv(const std::vector<EpochSample>& samples) {
  std::ostringstream out;
  out << "tick,row_hits,row_empties,row_conflicts,row_conflict_rate,"
         "prefetches_issued,prefetch_accuracy,buffer_hits,buffer_misses,"
         "buffer_hit_rate,buffer_occupancy,link_down_busy_ticks,"
         "link_up_busy_ticks,demand_reads,demand_writes\n";
  for (const EpochSample& s : samples) {
    out << s.tick << ',' << s.row_hits << ',' << s.row_empties << ','
        << s.row_conflicts << ',' << json_double(s.row_conflict_rate) << ','
        << s.prefetches_issued << ',' << json_double(s.prefetch_accuracy)
        << ',' << s.buffer_hits << ',' << s.buffer_misses << ','
        << json_double(s.buffer_hit_rate) << ',' << s.buffer_occupancy << ','
        << s.link_down_busy_ticks << ',' << s.link_up_busy_ticks << ','
        << s.demand_reads << ',' << s.demand_writes << '\n';
  }
  return out.str();
}

std::string EpochSampler::series_json(const std::vector<EpochSample>& samples,
                                      Tick epoch_ticks, int indent) {
  JsonWriter w(indent);
  w.begin_object();
  w.field("epoch_ticks", epoch_ticks);
  w.key("samples");
  w.begin_array();
  for (const EpochSample& s : samples) {
    w.begin_object();
    w.field("tick", s.tick);
    w.field("row_hits", s.row_hits);
    w.field("row_empties", s.row_empties);
    w.field("row_conflicts", s.row_conflicts);
    w.field("row_conflict_rate", s.row_conflict_rate);
    w.field("prefetches_issued", s.prefetches_issued);
    w.field("prefetch_accuracy", s.prefetch_accuracy);
    w.field("buffer_hits", s.buffer_hits);
    w.field("buffer_misses", s.buffer_misses);
    w.field("buffer_hit_rate", s.buffer_hit_rate);
    w.field("buffer_occupancy", s.buffer_occupancy);
    w.field("link_down_busy_ticks", s.link_down_busy_ticks);
    w.field("link_up_busy_ticks", s.link_up_busy_ticks);
    w.field("demand_reads", s.demand_reads);
    w.field("demand_writes", s.demand_writes);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

void EpochSampler::write_csv(const std::string& path) const {
  write_text_file(path, to_csv());
}

void EpochSampler::write_json(const std::string& path) const {
  write_text_file(path, to_json(2));
}

}  // namespace camps::obs
