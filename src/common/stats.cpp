#include "common/stats.hpp"

#include <algorithm>
#include <functional>
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

void Histogram::merge_from(const Histogram& other) {
  if (other.count_ == 0) return;
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
}

Counter& StatRegistry::counter(const std::string& name) {
  return counters_[name];
}

Histogram& StatRegistry::histogram(const std::string& name) {
  return histograms_[name];
}

void StatRegistry::add_formula(const std::string& name,
                               std::function<double()> fn) {
  formulas_[name] = std::move(fn);
}

u64 StatRegistry::counter_value(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

bool StatRegistry::has_counter(const std::string& name) const {
  return counters_.count(name) != 0;
}

const Histogram* StatRegistry::find_histogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

u64 StatRegistry::sum_matching(const std::string& pattern) const {
  const auto star = pattern.find('*');
  if (star == std::string::npos) return counter_value(pattern);
  const std::string prefix = pattern.substr(0, star);
  const std::string suffix = pattern.substr(star + 1);
  u64 total = 0;
  // counters_ is sorted; jump to the first key >= prefix.
  for (auto it = counters_.lower_bound(prefix); it != counters_.end(); ++it) {
    const std::string& name = it->first;
    if (name.compare(0, prefix.size(), prefix) != 0) break;
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += it->second.value();
    }
  }
  return total;
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
  for (const auto& [name, fn] : formulas_) {
    out << name << " = " << fn() << '\n';
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
  w.key("formulas");
  w.begin_object();
  for (const auto& [name, fn] : formulas_) w.field(name, fn());
  w.end_object();
  w.end_object();
  return w.str();
}

void StatRegistry::reset() {
  for (auto& [_, c] : counters_) c.reset();
  for (auto& [_, h] : histograms_) h.reset();
}

void StatRegistry::merge_from(const StatRegistry& other) {
  for (const auto& [name, c] : other.counters_) {
    counters_[name].merge_from(c);
  }
  for (const auto& [name, h] : other.histograms_) {
    histograms_[name].merge_from(h);
  }
}

}  // namespace camps
