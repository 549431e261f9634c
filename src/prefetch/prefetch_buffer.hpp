// The per-vault prefetch buffer (Table I: 16 KB, fully associative, 1 KB
// lines = whole DRAM rows, 22-cycle hit latency).
//
// Rows are inserted whole by the prefetch engine and looked up per demand
// request. The buffer tracks, per resident row:
//   - a distinct-line reference bitmap (utilization = popcount),
//   - the paper's recency encoding (MRU = entries-1 ... LRU = 0),
//   - a dirty flag (writes hit buffered rows; dirty victims are written
//     back to the bank, costing energy).
// Victim selection is delegated to a ReplacementPolicy so CAMPS (LRU) and
// CAMPS-MOD (utilization+recency) share this implementation.
#pragma once

#include <bit>
#include <memory>
#include <optional>
#include <vector>

#include "check/audit.hpp"
#include "obs/trace_recorder.hpp"
#include "prefetch/replacement.hpp"

namespace camps::prefetch {

struct PrefetchBufferConfig {
  u32 entries = 16;      ///< 16 KB / 1 KB rows.
  u64 hit_latency = 22;  ///< Vault-controller cycles to serve a hit.

  bool operator==(const PrefetchBufferConfig&) const = default;
};

/// Outcome of inserting a row (possibly evicting another).
struct EvictedRow {
  BankRow id;
  bool referenced = false;  ///< At least one line was demanded before
                            ///< eviction — the prefetch was *useful*.
  bool dirty = false;       ///< Needs a writeback to the bank.
  u32 utilization = 0;
};

struct InsertResult {
  bool inserted = false;             ///< False if the row was already here.
  std::optional<EvictedRow> victim;  ///< Present when a row was displaced.
};

class PrefetchBuffer final {
 public:
  /// `lines_per_row` is the vault geometry's row size in lines (<= 64,
  /// the width of the reference bitmaps).
  PrefetchBuffer(const PrefetchBufferConfig& config, u32 lines_per_row,
                 std::unique_ptr<ReplacementPolicy> policy);

  /// Arms span recording: inserts and evictions become instant events on
  /// the vault's trace lane. `ticks_per_stamp` converts the controller's
  /// insert stamps (DRAM cycles) to global ticks.
  void attach_trace(obs::TraceRecorder* trace, u32 track,
                    u64 ticks_per_stamp) {
    trace_ = trace;
    trace_track_ = track;
    trace_ticks_per_stamp_ = ticks_per_stamp;
  }

  /// True if `row` is resident (no state change; used by the scheduler to
  /// filter redundant prefetches).
  bool contains(BankRow row) const;

  /// Serves a demand access. On hit: marks `line` referenced, bumps
  /// utilization for a newly-referenced line, moves the row to MRU, sets
  /// dirty on writes. Returns whether it hit.
  ///
  /// `fill_touch = true` marks the line that *triggered* the row fetch
  /// (BASE's serve-through-copy path): it updates the bitmap/utilization
  /// used for replacement but does not make the prefetch "useful" — only
  /// lines the prefetch genuinely anticipated count toward accuracy.
  bool access(BankRow row, LineId line, AccessType type,
              bool fill_touch = false);

  /// Inserts a freshly fetched row (as MRU). If the buffer is full the
  /// replacement policy picks a victim, returned for writeback/usefulness
  /// accounting. Inserting a resident row is a no-op.
  ///
  /// `seed_bitmap` marks lines that were already served while the row sat
  /// in the DRAM row buffer (e.g. the accesses that pushed it past the RUT
  /// threshold): they count toward utilization — Section 3.2's "all
  /// distinct cache lines accessed" test spans the row's whole life — but
  /// not toward prefetch usefulness.
  ///
  /// `insert_stamp` is a monotonic time (the controller uses DRAM cycles);
  /// the controller compares request arrival times against it to decide
  /// whether a hit is a true prefetch win (request arrived after the data)
  /// or merely a queued demand the copy happened to serve.
  InsertResult insert(BankRow row, u64 seed_bitmap = 0, u64 insert_stamp = 0);

  /// Insert stamp of a resident row; nullopt when absent.
  std::optional<u64> insert_stamp(BankRow row) const;

  /// Drops a resident row without statistics (used by tests/invalidation).
  bool evict(BankRow row);

  /// Evicts every resident row (MRU first), with full eviction accounting,
  /// and returns the victims so the caller can run the usual usefulness /
  /// writeback notifications. Used by the vault's fault-degradation path.
  std::vector<EvictedRow> flush();

  /// Records a lookup miss observed by the controller (which checks
  /// residency with contains() and only calls access() on hits).
  void count_miss() { ++misses_; }

  /// Eviction histograms by utilization at eviction time (diagnostics and
  /// the ablation benches): index = distinct lines referenced.
  const std::vector<u64>& evictions_by_utilization() const {
    return evict_util_hist_;
  }
  const std::vector<u64>& unused_evictions_by_utilization() const {
    return evict_unused_hist_;
  }

  u32 size() const { return static_cast<u32>(mru_order_.size()); }
  u32 capacity() const { return cfg_.entries; }

  /// Paper recency value of a resident row (MRU = entries-1); nullopt when
  /// absent. Exposed for tests and the replacement policy.
  std::optional<u32> recency(BankRow row) const;
  std::optional<u32> utilization(BankRow row) const;

  // --- statistics ------------------------------------------------------
  u64 hits() const { return hits_; }
  u64 misses() const { return misses_; }
  u64 inserts() const { return inserts_; }
  u64 evictions() const { return evictions_; }
  u64 evicted_unreferenced() const { return evicted_unreferenced_; }
  u64 dirty_writebacks() const { return dirty_writebacks_; }
  /// Rows that were referenced at least once, over all rows that have left
  /// the buffer plus those resident and referenced — the paper's
  /// "prefetching accuracy" numerator grows as prefetches prove useful.
  double row_accuracy() const;

  /// Zeroes all statistics (contents stay resident). Used at the warmup /
  /// measurement boundary.
  void reset_stats();

  /// Invariants: the recency stack is a permutation of the resident slots
  /// (Section 3.2's MRU = entries-1 ... LRU = 0 encoding), every entry's
  /// cached utilization matches its bitmap popcount and stays <= lines per
  /// row, bitmaps stay confined to the row's lines, and the eviction
  /// statistics cross-foot.
  void audit(check::AuditReporter& reporter) const;

 private:
  friend struct check::TestCorruptor;

  struct Entry {
    BankRow id{};
    /// Lines served from the DRAM row buffer before the fetch (plus BASE's
    /// fill-touch line). Counts toward "all data transferred" only.
    u64 seed_bitmap = 0;
    /// Lines demanded from this buffer entry — Section 3.2's utilization
    /// counter is the popcount of this.
    u64 accessed_bitmap = 0;
    u32 utilization = 0;  ///< popcount(accessed_bitmap), cached.
    u32 useful_refs = 0;  ///< Hits beyond the fetch-triggering line.
    u64 insert_stamp = 0;
    bool dirty = false;
    bool valid = false;

    bool fully_transferred(u32 lines_per_row) const {
      return static_cast<u32>(std::popcount(seed_bitmap | accessed_bitmap)) >=
             lines_per_row;
    }
  };

  std::optional<u32> find(BankRow row) const;
  void touch_mru(u32 slot);
  u32 recency_of_position(size_t pos) const;
  std::vector<VictimCandidate> candidates() const;
  EvictedRow pop_slot(u32 slot);

  PrefetchBufferConfig cfg_;
  u32 lines_per_row_;
  std::unique_ptr<ReplacementPolicy> policy_;
  obs::TraceRecorder* trace_ = nullptr;
  u32 trace_track_ = 0;
  u64 trace_ticks_per_stamp_ = 1;
  std::vector<Entry> slots_;
  std::vector<u32> mru_order_;  ///< Front = MRU; holds valid slot indices.

  u64 hits_ = 0, misses_ = 0, inserts_ = 0, evictions_ = 0;
  u64 evicted_unreferenced_ = 0, dirty_writebacks_ = 0;
  u64 finished_rows_ = 0, finished_referenced_ = 0;
  std::vector<u64> evict_util_hist_;
  std::vector<u64> evict_unused_hist_;
};

static_assert(check::Auditable<PrefetchBuffer>);

}  // namespace camps::prefetch
