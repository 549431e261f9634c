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
// Event cost: exactly one step per trace record, in the late phase of the
// tick the record issues (sim/event_tags.hpp). A cache hit schedules
// nothing: its completion tick is known at issue, and the core keeps it in
// a small array, one slot per window entry at most. When the core plans a
// load whose window will still be full at its issue tick, it plans the
// stall too: the step goes straight to the issue tick after the earliest
// hit completing later, and a miss fill that frees a slot first moves it
// there by cancel + reschedule (docs/simulation-model.md).
//
// Methodology hooks: the core reports when it crosses its warmup boundary
// and its measurement boundary, mirroring the paper's warmup + detailed
// windows; IPC is measured strictly between the two.
#pragma once

#include <functional>
#include <optional>
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
  u64 instructions_issued() const { return issued_; }
  bool warmed_up() const { return warmup_tick_.has_value(); }
  bool measured() const { return measure_tick_.has_value(); }
  bool halted() const { return halted_; }

  /// Instructions actually executed inside the measurement window (equals
  /// measure_instructions unless the trace ended early).
  u64 measured_instructions() const { return measured_instructions_; }

  /// IPC over the measurement window. 0 before the window completes.
  double measured_ipc() const;

  u64 loads() const { return loads_; }
  u64 stores() const { return stores_; }
  /// CPU cycles the core spent stalled on a full load window, as of now:
  /// a stall that an in-flight hit has already ended counts in full.
  u64 stall_cycles() const;

  /// Invariants: the in-flight hits fit the load window, the outstanding
  /// loads are exactly the in-flight misses plus the pending hits, and the
  /// step planned for the current record is pending at its tick: the
  /// record's issue tick, or for a stalled record the issue tick after the
  /// earliest hit that ends the stall (none if only a miss can).
  void audit(check::AuditReporter& reporter) const;

 private:
  friend struct check::TestCorruptor;

  /// Issues the record due now (if any), fetches the next and plans it.
  void step();
  void schedule_step(Tick when);
  /// Issues the current record at now().
  void issue();
  /// Schedules the step at which the current record issues, stall
  /// included (see the header comment).
  void plan();
  /// A miss fill reached the core.
  void on_load_done();
  /// Forgets the in-flight hits that completed by now.
  void retire_hits();
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
  u64 issued_ = 0;
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
