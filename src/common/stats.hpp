// Lightweight statistics framework.
//
// Every simulator component registers named counters and histograms with a
// StatRegistry and keeps only references to them: the registry holds the
// one copy of each metric, and each name is spelled once, at its producer
// (camps_lint's stats-once rule). Derived quantities (IPC, prefetch
// accuracy, ...) are computed by their consumers, e.g. RunResults; the
// registry only renders a stable, alphabetically sorted dump.
#pragma once

#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace camps {

/// A monotonically increasing event counter.
class Counter {
 public:
  void inc(u64 by = 1) { value_ += by; }
  u64 value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  u64 value_ = 0;
};

/// Log-linear histogram in the style of HdrHistogram: values below
/// 2 * kSubBuckets are recorded exactly, and above that each power of two
/// [2^e, 2^(e+1)) splits into kSubBuckets equal linear buckets. Every
/// histogram shares this one layout; there is no overflow bucket, and
/// storage grows only up to the largest sample seen. Tracks
/// count/sum/min/max exactly.
class Histogram {
 public:
  static constexpr int kSubBits = 5;
  static constexpr u64 kSubBuckets = u64{1} << kSubBits;
  /// Bound on |percentile - true sample at that rank| / true sample.
  static constexpr double kMaxRelativeError = 1.0 / (2 * kSubBuckets);

  /// Hot path: a bit-width, a shift and a few adds (the storage grows on
  /// the rare sample that sets a new magnitude).
  void sample(u64 value) {
    const size_t idx = index_of(value);
    if (idx >= buckets_.size()) buckets_.resize(idx + 1, 0);
    ++buckets_[idx];
    ++count_;
    sum_ += value;
    if (count_ == 1) {
      min_ = max_ = value;
    } else {
      min_ = value < min_ ? value : min_;
      max_ = value > max_ ? value : max_;
    }
  }

  u64 count() const { return count_; }
  u64 sum() const { return sum_; }
  u64 min() const { return min_; }
  u64 max() const { return max_; }
  double mean() const { return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0; }
  /// Sample at rank floor(p/100 * (count-1)), p clamped to [0,100]: exact
  /// below 2 * kSubBuckets, else its bucket's midpoint (within
  /// kMaxRelativeError); always clamped to [min, max].
  double percentile(double p) const;
  void reset();

 private:
  /// Bucket of `value`: the top kSubBits+1 significant bits, offset by the
  /// octave. Values below 2 * kSubBuckets map to themselves.
  static size_t index_of(u64 value) {
    const int excess = static_cast<int>(std::bit_width(value)) - kSubBits - 1;
    const int shift = excess > 0 ? excess : 0;
    return (static_cast<size_t>(shift) << kSubBits) + (value >> shift);
  }

  std::vector<u64> buckets_;  ///< Sized to index_of(max) + 1.
  u64 count_ = 0;
  u64 sum_ = 0;
  u64 min_ = 0;
  u64 max_ = 0;
};

/// Central registry. Components hold references to the Counter/Histogram
/// objects it owns; names use '.'-separated paths ("vault7.rd_queue_full").
class StatRegistry {
 public:
  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Returns the counter value, or 0 if it was never registered.
  u64 counter_value(const std::string& name) const;

  /// Registered histogram by exact name, or nullptr. Never creates.
  const Histogram* find_histogram(const std::string& name) const;
  /// Every registered histogram, sorted by name.
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// Renders "name = value" lines, sorted by name.
  std::string dump() const;

  /// Machine-readable registry dump: {"counters": {...}, "histograms":
  /// {name: {count,sum,min,max,mean,p50,p95,p99}}}. Names sort
  /// alphabetically and doubles render shortest-round-trip, so the output
  /// is byte-stable across runs and --jobs settings (see common/json.hpp).
  std::string dump_json(int indent = 0) const;

  void reset();

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace camps
