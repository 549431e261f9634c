// Trace-driven core model (substitute for gem5's OoO cores; DESIGN.md §2).
//
// Each core replays a TraceSource: `gap` non-memory instructions execute at
// `issue_width` per cycle, then the memory access issues (at most one per
// cycle — an L1-port bound). Loads are non-blocking up to
// `max_outstanding_loads` in flight (the ROB/MSHR window); hitting the
// window stalls the core until a load returns. Stores retire immediately
// through the store buffer. This reproduces the arrival process and
// memory-level parallelism that drive row-buffer behaviour, which is what
// the paper's evaluation measures.
//
// Event cost: one step per chain of trace records, in the late phase of the
// tick the chain's first record issues (sim/event_tags.hpp). After issuing
// its record, a step keeps fetching and issues each next record at its own
// issue tick, with no event, while the record
//   (a) hits the core's L1, or its L2 without a dirty L2 victim to write
//       into the shared L3,
//   (b) in an L1 set with no fill pending for this core,
//   (c) finds a window slot free if it is a load, counting every miss in
//       flight now as still in flight then, and
//   (d) crosses neither the warmup nor the measurement boundary.
// The first record that fails gets an ordinary step at its own tick; a
// trace that ends mid-chain gets one at the last record's tick, to halt.
//
// Why a chain changes no result: the L1 and L2 are private, and between two
// of the core's own accesses only its own miss fills change them. An L1 set
// with no fill pending, and the L2 sets that map into it, stay as they are
// until the core's next miss, which issues after the chain. So the hit, its
// LRU updates, its dirty bits and an L2 hit's refill and victims are exactly
// those of the record's own step (cache/hierarchy.hpp counts the pending
// fills). An L2 hit whose victims would reach the shared L3 ends the chain.
// Misses in flight only land between now and the record's tick, so a load
// that finds a free slot now finds one then. A cache hit schedules nothing:
// its completion tick is known at issue, and the core keeps it in a small
// array, one slot per window entry at most. Whatever reads the core's
// counts sees them as of the running event: instructions_issued(), loads()
// and stores() count a record issued ahead only once its place in the
// queue, (issue tick, this core's late unit), is at or before the running
// event's.
//
// When the core plans a load whose window will still be full at its issue
// tick, it plans the stall too: the step goes straight to the issue tick
// after the earliest hit completing later, and a miss fill that frees a
// slot first moves it there by cancel + reschedule
// (docs/simulation-model.md).
//
// Methodology hooks: the core reports when it crosses its warmup boundary
// and its measurement boundary, mirroring the paper's warmup + detailed
// windows; IPC is measured strictly between the two.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "cache/hierarchy.hpp"
#include "trace/trace.hpp"

namespace camps::cpu {

struct CoreConfig {
  u32 issue_width = 4;
  u32 max_outstanding_loads = 8;
  u64 warmup_instructions = 100'000;
  u64 measure_instructions = 1'000'000;

  bool operator==(const CoreConfig&) const = default;
};

class Core {
 public:
  /// Fired (once each) when the core crosses its warmup / measurement
  /// instruction boundaries.
  using PhaseFn = std::function<void(CoreId)>;

  Core(sim::Simulator& sim, CoreId id, const CoreConfig& config,
       trace::TraceSource* trace, cache::CacheHierarchy* caches,
       PhaseFn on_warmed_up, PhaseFn on_measured);

  /// Begins execution at the current simulation time.
  void start();

  CoreId id() const { return id_; }
  /// Instructions issued as of the running event (see the header comment).
  u64 instructions_issued() const;
  bool warmed_up() const { return warmup_tick_.has_value(); }
  bool measured() const { return measure_tick_.has_value(); }
  bool halted() const { return halted_; }

  /// Instructions actually executed inside the measurement window (equals
  /// measure_instructions unless the trace ended early).
  u64 measured_instructions() const { return measured_instructions_; }

  /// IPC over the measurement window. 0 before the window completes.
  double measured_ipc() const;

  /// Loads and stores issued as of the running event.
  u64 loads() const;
  u64 stores() const;
  /// CPU cycles the core spent stalled on a full load window, as of now:
  /// a stall that an in-flight hit has already ended counts in full.
  u64 stall_cycles() const;

  /// Invariants: the in-flight hits fit the load window, the outstanding
  /// loads are exactly the in-flight misses plus the pending hits, no
  /// record issued ahead (an L1 or an L2 hit) went to an L1 set with a fill
  /// pending for this core, and the step planned for the first record not
  /// issued ahead is pending at its tick: the record's issue tick, or for a
  /// stalled record the issue tick after the earliest hit that ends the
  /// stall (none if only a miss can).
  void audit(check::AuditReporter& reporter) const;

 private:
  friend struct check::TestCorruptor;

  /// A record issued ahead of its step's place in the queue.
  struct AheadRecord {
    Tick at;     ///< Issue tick; the step would have run at (at, step_unit_).
    u64 instrs;  ///< Instructions it retires (gap + 1).
    AccessType type;
    Addr addr;
  };
  /// Longest chain: bounds ahead_ and the records fetched past a run's end
  /// (a chain ends early at no cost to exactness).
  static constexpr u32 kMaxChain = 1024;

  /// Issues the record due now (if any), then runs ahead.
  void step();
  void schedule_step(Tick when);
  /// Fetches records, issuing each that qualifies at its issue tick (see the
  /// header comment), and plans the first that does not.
  void run_ahead();
  /// Issues the current record ahead if it qualifies; false otherwise.
  bool issue_ahead();
  /// Issues the current record at now().
  void issue();
  /// True if `instrs` more instructions reach the next phase boundary.
  bool crosses_phase(u64 instrs) const;
  /// Window slots taken at `at`, absent miss fills: every miss, and every
  /// hit completing after `at`. Lowers `*first_free` to the earliest such
  /// hit, if given.
  u32 window_busy(Tick at, Tick* first_free = nullptr) const;
  /// Records issued ahead that the running event has not reached yet: a
  /// suffix of ahead_.
  std::span<const AheadRecord> unreached() const;
  /// Schedules the step at which the current record issues, stall
  /// included (see the header comment).
  void plan();
  /// A miss fill reached the core.
  void on_load_done();
  /// Forgets the in-flight hits that completed by `at`.
  void retire_hits(Tick at);
  /// Ends a stall at tick `at` (after stall_start_): local time catches up
  /// to the moment the window slot freed.
  void resume(Tick at);
  /// Tick at which the current record issues if core-local time is `from`.
  Tick issue_tick(Tick from) const;
  void check_phases();
  void halt();

  sim::Simulator& sim_;
  CoreId id_;
  CoreConfig cfg_;
  trace::TraceSource* trace_;
  cache::CacheHierarchy* caches_;
  PhaseFn on_warmed_up_;
  PhaseFn on_measured_;
  u32 step_unit_;  ///< Late-phase unit of this core's steps.

  std::optional<trace::TraceRecord> current_;
  Tick cursor_ = 0;  ///< Core-local time: when the last issue completed.
  u64 issued_ = 0;   ///< Counts records issued ahead, as loads_/stores_ do.
  /// The current chain's records issued ahead, in issue order; cleared by
  /// the next step, which every one of them precedes.
  std::vector<AheadRecord> ahead_;
  u32 outstanding_ = 0;  ///< Loads in flight: misses plus pending hits.
  u32 misses_ = 0;       ///< Loads waiting on a memory fill.
  /// Completion ticks of in-flight hits, at most one per window slot.
  std::vector<Tick> hits_;
  sim::EventHandle step_;  ///< The next step, while one is pending.
  /// The current record finds the window full: it stalls from its issue
  /// tick, stall_start_ (possibly still ahead), until resume_at_, the
  /// earliest hit completing after it (kTickNever: until a miss fill).
  bool stalled_ = false;
  bool halted_ = false;
  Tick stall_start_ = 0;
  Tick resume_at_ = kTickNever;
  Tick stall_ticks_ = 0;

  std::optional<Tick> warmup_tick_;
  std::optional<Tick> measure_tick_;
  u64 measured_instructions_ = 0;
  u64 loads_ = 0, stores_ = 0;
};

static_assert(check::Auditable<Core>);

}  // namespace camps::cpu
