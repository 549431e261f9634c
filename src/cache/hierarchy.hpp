// Three-level cache hierarchy per Table I:
//   L1 (I/D unified here as data path): 32 KB private, 2-way, 2-cycle hit
//   L2: 256 KB private, 4-way, 6-cycle hit
//   L3: 16 MB shared, 16-way, 20-cycle hit, 64 B lines
//
// Functional tags + computed latencies: a read resolves at the first level
// that hits, after the sum of lookup latencies down to it. A hit schedules
// no event: read() returns its completion tick, and the hit enters the AMAT
// counters by that tick, settled lazily (see amat_cycles()). A miss launches
// its memory fetch after the full lookup latency, as an event; misses past
// the L3 go to main memory through a MemoryPort, and MSHRs merge same-line
// misses.
// Write-back/write-allocate: stores that miss fetch the line like a load
// (but complete the store immediately — store buffers hide the latency),
// dirty victims cascade down and dirty L3 victims become memory writes.
//
// Run-ahead support (cpu/core.hpp): each core's L1 and L2 are private, and
// only that core's own miss fills change them between its accesses. The
// hierarchy counts those fills in flight per (core, L1 set). The L2 has at
// least as many sets as the L1 (asserted), so every L2 set maps into one L1
// set, and a fill touches only the L1 set of its line and L2 sets that map
// into it. access_ahead() serves an L1 hit, or an L2 hit whose victims stay out
// of the shared L3, in a set with no fill pending, so a core may issue it
// before its tick arrives without changing anything another component can
// observe.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cache/cache.hpp"
#include "cache/mshr.hpp"
#include "sim/clock.hpp"
#include "sim/simulator.hpp"

namespace camps::cache {

/// The hierarchy's view of main memory (implemented by the HMC host
/// controller via a thin adapter in the system layer).
class MemoryPort {
 public:
  virtual ~MemoryPort() = default;
  virtual void mem_read(Addr line_addr, CoreId core,
                        std::function<void()> done) = 0;
  virtual void mem_write(Addr line_addr, CoreId core) = 0;
};

struct HierarchyConfig {
  CacheConfig l1{.size_bytes = 32 * 1024, .ways = 2, .line_bytes = 64,
                 .hit_latency = 2};
  CacheConfig l2{.size_bytes = 256 * 1024, .ways = 4, .line_bytes = 64,
                 .hit_latency = 6};
  CacheConfig l3{.size_bytes = 16 * 1024 * 1024, .ways = 16, .line_bytes = 64,
                 .hit_latency = 20};
  bool operator==(const HierarchyConfig&) const = default;
};

class CacheHierarchy final {
 public:
  using DoneFn = std::function<void()>;

  CacheHierarchy(sim::Simulator& sim, const HierarchyConfig& config,
                 u32 cores, MemoryPort* memory);

  /// Performs a load. On an L1/L2/L3 hit, returns the tick at which the
  /// data reaches the core and never calls `done`; on a miss, returns
  /// nullopt and `done` fires when the fill reaches the core.
  std::optional<Tick> read(CoreId core, Addr addr, DoneFn done);

  /// Performs a store (write-allocate; completes immediately for the core,
  /// the line fetch proceeds in the background on a miss).
  void write(CoreId core, Addr addr);

  /// A load or store issued ahead, at tick `at` (>= now()), into an L1 set
  /// with no fill pending for this core. It must hit the core's L1, or its
  /// L2 with no dirty L2 victim to write into the shared L3. Then it makes
  /// exactly the changes read() or write() would, and returns the tick the
  /// access completes (a load enters AMAT by then, as from read()).
  /// Otherwise it returns nullopt and changes nothing: no miss is counted.
  std::optional<Tick> access_ahead(CoreId core, Addr addr, AccessType type,
                                   Tick at);

  /// Fills in flight into the L1 set of `addr` for `core`: its load misses
  /// and write-allocates whose lines have not landed yet, including their
  /// fills into the L2 sets that map into it.
  u32 pending_l1_fills(CoreId core, Addr addr) const {
    return pending_fills_[fill_slot(core, addr)];
  }

  // --- inspection -------------------------------------------------------
  const Cache& l1(CoreId core) const { return *l1_[core]; }
  const Cache& l2(CoreId core) const { return *l2_[core]; }
  const Cache& l3() const { return l3_; }
  const MshrFile& mshrs() const { return mshrs_; }
  u64 l3_misses() const { return l3_.misses(); }
  u64 memory_reads() const { return memory_reads_; }
  u64 memory_writes() const { return memory_writes_; }
  /// Sum of load completion latencies (CPU cycles) and count, for AMAT, as
  /// of now: a hit counts once its completion tick is <= now(), exactly as
  /// if its completion had been an ordinary event of that tick.
  u64 load_latency_cycles() const;
  u64 loads_completed() const;
  double amat_cycles() const;

  /// Zeroes all cache and latency counters; contents stay warm. Hits that
  /// complete by now() are settled first and zeroed with the rest; hits
  /// still in flight count after the reset.
  void reset_stats();

  /// Audits the MSHR file.
  void audit(check::AuditReporter& reporter) const;

 private:
  friend struct check::TestCorruptor;

  /// Index of (core, L1 set of `addr`) in pending_fills_.
  size_t fill_slot(CoreId core, Addr addr) const {
    return core * l1_sets_ + l1_[core]->set_index(addr);
  }

  /// Walks the hierarchy for one line; returns the level that hit
  /// (1/2/3) or 0 for memory, and accumulates lookup latency in `cycles`.
  u32 lookup_path(CoreId core, Addr addr, AccessType type, u32& cycles);
  /// Lands a fetched line in the L3 and wakes its waiters; `requesting` is
  /// the core whose miss launched the fetch.
  void fill_from_memory(CoreId requesting, Addr addr);
  /// Registers `waiter` for `line`; launches the memory fetch if this is
  /// the first miss.
  void allocate_miss(Addr line, CoreId core, u32 lookup_cycles,
                     MshrFile::WakeFn waiter);
  void fill_level(Cache& cache, Addr addr, bool dirty, CoreId core,
                  bool is_l3);
  void complete_load(Tick issued, DoneFn done);
  /// Queues a load hit for AMAT, to count once its completion tick passes.
  void add_pending_hit(Tick done, u32 cycles);
  /// Moves the hits completed by now() into the AMAT counters.
  void settle_hits();
  /// Sums the pending hits completed by now() (without settling them).
  void completed_hits(u64& count, u64& cycles) const;

  sim::Simulator& sim_;
  HierarchyConfig cfg_;
  std::vector<std::unique_ptr<Cache>> l1_;
  std::vector<std::unique_ptr<Cache>> l2_;
  Cache l3_;
  MshrFile mshrs_;
  MemoryPort* memory_;
  /// Fills in flight per (core, L1 set): counted up where a miss registers
  /// its waiter, down in the waiter.
  std::vector<u32> pending_fills_;
  u64 l1_sets_;

  /// A hit not yet counted into AMAT.
  struct PendingHit {
    Tick done;   ///< Completion tick.
    u32 cycles;  ///< Load latency, CPU cycles.
  };
  std::vector<PendingHit> pending_hits_;
  /// pending_hits_ size that triggers the next settle (keeps it amortized).
  size_t settle_at_ = kMinSettle;
  static constexpr size_t kMinSettle = 64;

  u64 memory_reads_ = 0, memory_writes_ = 0;
  u64 load_latency_cycles_ = 0, loads_completed_ = 0;
};

static_assert(check::Auditable<CacheHierarchy>);

}  // namespace camps::cache
