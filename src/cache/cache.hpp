// Set-associative cache array: LRU, write-back, write-allocate.
//
// The cache is a *functional* tag store with a latency attached by the
// hierarchy; it never schedules events itself. Used for the private L1/L2
// and the shared L3 of Table I.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

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
  u64 set_index(Addr addr) const;

  u64 hits() const { return hits_; }
  u64 misses() const { return misses_; }
  u64 evictions() const { return evictions_; }
  u64 dirty_evictions() const { return dirty_evictions_; }

  /// Zeroes counters; tag contents stay (warmup boundary).
  void reset_stats() { hits_ = misses_ = evictions_ = dirty_evictions_ = 0; }

 private:
  struct Line {
    u64 tag = 0;
    u32 lru = 0;  ///< Larger = more recently used.
    bool valid = false;
    bool dirty = false;
  };

  u64 tag_of(Addr addr) const;
  Line* find(Addr addr);
  const Line* find(Addr addr) const;
  /// Index in lines_ of the way of `set` a fill evicts: the first invalid
  /// way, else the least recently used, counting `mru` (if not null) as
  /// the most recent.
  size_t victim_slot(u64 set, const Line* mru) const;
  /// The victim record for a valid `line` of `set`.
  Victim victim_record(u64 set, const Line& line) const;
  void touch(u64 set, Line& line);

  CacheConfig cfg_;
  std::vector<Line> lines_;       ///< sets x ways, row-major.
  std::vector<u32> lru_clock_;    ///< Per-set pseudo-time for LRU.
  u64 hits_ = 0, misses_ = 0, evictions_ = 0, dirty_evictions_ = 0;
};

}  // namespace camps::cache
