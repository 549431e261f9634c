// The simulation executive: owns the event queue and the notion of "now".
//
// Components capture `Simulator&` and call schedule()/schedule_at() (or
// schedule_late_at() for a tick's late phase), keeping the returned handle
// if they may need to cancel(); system::System calls the run() variants.
// Time only moves forward. Each event carries an EventSource tag, and the
// simulator counts executed events per source (sim/event_tags.hpp).
#pragma once

#include <functional>
#include <optional>

#include "sim/event_queue.hpp"

namespace camps::sim {

class Simulator final {
 public:
  Tick now() const { return now_; }

  /// Schedules `fn` to run `delay` ticks from now.
  EventHandle schedule(Tick delay, EventFn fn,
                       EventSource source = EventSource::kOther);

  /// Schedules `fn` at absolute tick `when`; must be >= now().
  EventHandle schedule_at(Tick when, EventFn fn,
                          EventSource source = EventSource::kOther);

  /// Schedules `fn` in the late phase of absolute tick `when` (>= now()),
  /// ordered by `unit` (a sim::late_unit number) among that tick's late
  /// events (see EventQueue::schedule_late).
  EventHandle schedule_late_at(Tick when, u32 unit, EventFn fn,
                               EventSource source = EventSource::kOther);

  /// Removes a scheduled event without running it; false if it already
  /// fired or was cancelled (see EventQueue::cancel).
  bool cancel(EventHandle handle) { return queue_.cancel(handle); }

  /// Runs until the queue drains. Returns the number of events executed.
  u64 run();

  /// Runs events with time <= `deadline`; afterwards now() == deadline if
  /// the queue drained or the next event lies beyond it.
  u64 run_until(Tick deadline);

  /// Runs until `pred()` becomes true (checked after every event) or the
  /// queue drains. Returns true if the predicate fired.
  template <typename Pred>
  bool run_while_pending(Pred&& pred) {
    while (!queue_.empty()) {
      step();
      if (pred()) return true;
    }
    return pred();
  }

  /// Executes exactly one event, if any. Returns false if queue was empty.
  bool step();

  /// Late unit of the event running now, or of the last one run; nullopt
  /// for an ordinary event, which runs before every late event of its tick.
  /// With now(), this is the running event's place in the queue's order.
  std::optional<u32> running_late_unit() const { return running_unit_; }

  u64 events_executed() const { return executed_; }
  /// Executed events per source tag; they sum to events_executed().
  const EventCounts& events_by_source() const { return by_source_; }
  EventQueue& queue() { return queue_; }

  /// Calls `fn` after every `every_events` executed events (0 disables).
  /// The audit driver hangs its periodic model audits here; the disabled
  /// case costs one predictable branch per event.
  void set_event_hook(u64 every_events, std::function<void()> fn) {
    hook_every_ = fn ? every_events : 0;
    hook_countdown_ = hook_every_;
    hook_ = std::move(fn);
  }

  /// Invariants: time never outruns the earliest pending event, the
  /// per-source counts sum to the executed events, and the event queue's
  /// internal structure holds (delegated).
  void audit(check::AuditReporter& reporter) const;

 private:
  /// Shared post-event bookkeeping for all run variants.
  void after_event() {
    ++executed_;
    if (hook_every_ != 0 && --hook_countdown_ == 0) [[unlikely]] {
      hook_countdown_ = hook_every_;
      hook_();
    }
  }

  EventQueue queue_;
  Tick now_ = 0;
  std::optional<u32> running_unit_;
  u64 executed_ = 0;
  EventCounts by_source_{};
  u64 hook_every_ = 0;
  u64 hook_countdown_ = 0;
  std::function<void()> hook_;
};

static_assert(check::Auditable<Simulator>);

}  // namespace camps::sim
