#include "common/stats.hpp"

#include <algorithm>
#include <sstream>
#include <string>

#include "common/json.hpp"

namespace camps {

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const u64 target = static_cast<u64>(p / 100.0 * static_cast<double>(count_ - 1));
  u64 seen = 0;
  size_t i = 0;
  while ((seen += buckets_[i]) <= target) ++i;
  // Invert index_of: the first 2 * kSubBuckets buckets are exact; octave
  // `shift` holds kSubBuckets buckets of width 2^shift.
  const size_t shift = std::max<size_t>(i >> kSubBits, 1) - 1;
  const u64 lo = (i - (shift << kSubBits)) << shift;
  const double mid = static_cast<double>(lo) +
                     static_cast<double>((u64{1} << shift) - 1) / 2.0;
  return std::clamp(mid, static_cast<double>(min_), static_cast<double>(max_));
}

void Histogram::reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = sum_ = min_ = max_ = 0;
}

Counter& StatRegistry::counter(const std::string& name) {
  return counters_[name];
}

Histogram& StatRegistry::histogram(const std::string& name) {
  return histograms_[name];
}

u64 StatRegistry::counter_value(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

const Histogram* StatRegistry::find_histogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::string StatRegistry::dump() const {
  std::ostringstream out;
  for (const auto& [name, c] : counters_) {
    out << name << " = " << c.value() << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    out << name << " = {count=" << h.count() << " mean=" << h.mean()
        << " min=" << h.min() << " max=" << h.max()
        << " p50=" << h.percentile(50) << " p99=" << h.percentile(99) << "}\n";
  }
  return out.str();
}

std::string StatRegistry::dump_json(int indent) const {
  JsonWriter w(indent);
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, c] : counters_) w.field(name, c.value());
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name);
    w.begin_object();
    w.field("count", h.count());
    w.field("sum", h.sum());
    w.field("min", h.min());
    w.field("max", h.max());
    w.field("mean", h.mean());
    w.field("p50", h.percentile(50));
    w.field("p95", h.percentile(95));
    w.field("p99", h.percentile(99));
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

void StatRegistry::reset() {
  for (auto& [_, c] : counters_) c.reset();
  for (auto& [_, h] : histograms_) h.reset();
}

}  // namespace camps
