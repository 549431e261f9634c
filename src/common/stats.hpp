// Lightweight statistics framework.
//
// Every simulator component registers named counters and histograms with a
// StatRegistry and keeps only references to them: the registry holds the
// one copy of each metric. The registry renders a stable, alphabetically
// sorted dump and supports derived "formula" stats evaluated at dump time
// (e.g. IPC, prefetch accuracy) so the raw counters stay cheap on the hot
// path.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
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

  /// Adds `other`'s count to this one (for cross-instance aggregation).
  void merge_from(const Counter& other) { value_ += other.value_; }

 private:
  u64 value_ = 0;
};

/// Log-linear histogram in the style of HdrHistogram: values below
/// 2 * kSubBuckets are recorded exactly, and above that each power of two
/// [2^e, 2^(e+1)) splits into kSubBuckets equal linear buckets. Every
/// histogram shares this one layout, so any two merge; there is no overflow
/// bucket, and storage grows only up to the largest sample seen. Tracks
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

  /// Adds `other`'s samples: the result equals sampling both inputs.
  void merge_from(const Histogram& other);

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

  /// Derived value computed at dump time from other stats.
  void add_formula(const std::string& name, std::function<double()> fn);

  /// Returns the counter value, or 0 if it was never registered.
  u64 counter_value(const std::string& name) const;
  bool has_counter(const std::string& name) const;

  /// Registered histogram by exact name, or nullptr. Never creates.
  const Histogram* find_histogram(const std::string& name) const;
  /// Every registered histogram, sorted by name.
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// Sum of all counters whose name matches `prefix*suffix` with a single
  /// '*' wildcard in `pattern` (or exact match when no '*'). Used to
  /// aggregate per-vault counters into device totals.
  u64 sum_matching(const std::string& pattern) const;

  /// Renders "name = value" lines, sorted by name.
  std::string dump() const;

  /// Machine-readable registry dump: {"counters": {...}, "histograms":
  /// {name: {count,sum,min,max,mean,p50,p95,p99}},
  /// "formulas": {...}}. Names sort alphabetically and doubles render
  /// shortest-round-trip, so the output is byte-stable across runs and
  /// --jobs settings (see common/json.hpp).
  std::string dump_json(int indent = 0) const;

  void reset();

  /// Folds every counter and histogram of `other` into this registry,
  /// creating entries that don't exist yet. Counters and histograms add.
  /// Formulas are NOT merged: they capture references into their own
  /// registry, so each System re-registers them.
  /// This is what makes per-worker registries safe to aggregate after a
  /// parallel sweep without double-counting — each worker owns a private
  /// registry and the merge happens exactly once, under the caller's lock.
  void merge_from(const StatRegistry& other);

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, std::function<double()>> formulas_;
};

}  // namespace camps
