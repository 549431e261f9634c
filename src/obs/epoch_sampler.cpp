#include "obs/epoch_sampler.hpp"

#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
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
  const char* sep = "";
  EpochSample{}.for_each_field([&](const char* name, auto) {
    out << std::exchange(sep, ",") << name;
  });
  for (const EpochSample& s : samples) {
    sep = "\n";
    s.for_each_field([&](const char*, auto value) {
      out << std::exchange(sep, ",");
      if constexpr (std::is_floating_point_v<decltype(value)>) {
        out << json_double(value);
      } else {
        out << value;
      }
    });
  }
  out << '\n';
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
    s.for_each_field(
        [&w](const char* name, auto value) { w.field(name, value); });
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace camps::obs
