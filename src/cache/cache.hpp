// Set-associative cache array: LRU, write-back, write-allocate.
//
// The cache is a *functional* tag store with a latency attached by the
// hierarchy; it never schedules events itself. Used for the private L1/L2
// and the shared L3 of Table I.
//
// Storage is 8 bytes per line. Each set keeps its ways' u32 keys side by
// side, key = (tag + 1) << 1 | dirty with 0 for an invalid way, so a lookup
// reads one contiguous run of keys (a 16-way L3 set is one 64 B host line).
// A parallel u32 array holds each line's LRU stamp: a touch stamps the line
// with its set's incremented clock, and a fill evicts the first invalid way,
// else the valid way with the smallest stamp. Tags must fit the key's 31
// bits (tag + 1 < 2^31); a larger one aborts, naming the address.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "check/audit.hpp"
#include "common/types.hpp"

namespace camps::cache {

struct CacheConfig {
  u64 size_bytes = 32 * 1024;
  u32 ways = 2;
  u64 line_bytes = 64;
  u32 hit_latency = 2;  ///< CPU cycles, consumed by the hierarchy.

  u64 sets() const { return size_bytes / (line_bytes * ways); }
  bool valid() const;

  bool operator==(const CacheConfig&) const = default;
};

/// A line evicted to make room (victim of a fill).
struct Victim {
  Addr line_addr = 0;  ///< Byte address of the evicted line.
  bool dirty = false;
};

class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  /// True if the line is present. Updates LRU and the dirty bit on hit.
  bool access(Addr addr, AccessType type);

  /// access() without the miss: on a hit, counts it and updates LRU and the
  /// dirty bit; otherwise returns false and changes nothing.
  bool access_if_present(Addr addr, AccessType type);

  /// Presence check with no side effects.
  bool probe(Addr addr) const;

  /// Inserts the line (MRU, with the given dirty state). Returns the
  /// victim if a valid line was displaced. Filling a present line only
  /// ORs the dirty bit.
  std::optional<Victim> fill(Addr addr, bool dirty);

  /// The victim fill(addr) would return, with no side effects. If `mru` is
  /// given, the choice is made as if that present line had just been
  /// touched.
  std::optional<Victim> victim_of(Addr addr,
                                  std::optional<Addr> mru = std::nullopt) const;

  /// Removes the line if present; returns whether it was dirty.
  std::optional<bool> invalidate(Addr addr);

  const CacheConfig& config() const { return cfg_; }
  /// The set `addr` maps to.
  u64 set_index(Addr addr) const { return (addr >> line_shift_) & set_mask_; }

  u64 hits() const { return hits_; }
  u64 misses() const { return misses_; }
  u64 evictions() const { return evictions_; }
  u64 dirty_evictions() const { return dirty_evictions_; }

  /// Zeroes counters; tag contents stay (warmup boundary).
  void reset_stats() { hits_ = misses_ = evictions_ = dirty_evictions_ = 0; }

  /// Checks each set: no tag is valid in two ways, and the valid ways'
  /// LRU stamps are distinct and no later than the set's clock.
  void audit(check::AuditReporter& reporter) const;

 private:
  friend struct check::TestCorruptor;

  static constexpr u32 kInvalid = 0;
  static constexpr u32 kDirty = 1;

  /// Where a fill of some key lands in its set.
  struct Slot {
    u32 hit;     ///< The way holding the key, or ways if absent.
    u32 victim;  ///< The way a fill evicts when absent.
  };

  /// The clean key of `addr`'s tag. Aborts if the tag does not fit.
  u32 key_of(Addr addr) const;
  /// Index in keys_ and stamps_ of `set`'s way 0.
  size_t first_way(u64 set) const { return set * cfg_.ways; }
  /// The way of `set` holding `key` (dirty bit ignored), or ways if none.
  u32 find_way(u64 set, u32 key) const;
  /// One pass over `set`: the way holding `key`, else the way a fill
  /// evicts, the first invalid way or else the least recently used,
  /// passing over way `keep` (ways for none) unless it is the only way.
  Slot scan(u64 set, u32 key, u32 keep) const;
  /// The victim record for valid `key` in `set`.
  Victim victim_record(u64 set, u32 key) const;
  void touch(u64 set, u32 way) {
    stamps_[first_way(set) + way] = ++lru_clock_[set];
  }

  CacheConfig cfg_;
  u32 line_shift_;  ///< log2(line_bytes).
  u32 tag_shift_;   ///< log2(line_bytes * sets).
  u64 set_mask_;    ///< sets - 1.
  std::vector<u32> keys_;       ///< sets x ways, row-major.
  std::vector<u32> stamps_;     ///< LRU stamp per line; larger = more recent.
  std::vector<u32> lru_clock_;  ///< Per-set pseudo-time for LRU.
  u64 hits_ = 0, misses_ = 0, evictions_ = 0, dirty_evictions_ = 0;
};

static_assert(check::Auditable<Cache>);

}  // namespace camps::cache
