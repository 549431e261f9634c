#include "sim/simulator.hpp"

#include "common/assert.hpp"

namespace camps::sim {

EventHandle Simulator::schedule(Tick delay, EventFn fn, EventSource source) {
  return queue_.schedule(now_ + delay, std::move(fn), source);
}

EventHandle Simulator::schedule_at(Tick when, EventFn fn,
                                   EventSource source) {
  CAMPS_ASSERT_MSG(when >= now_, "cannot schedule into the past");
  return queue_.schedule(when, std::move(fn), source);
}

EventHandle Simulator::schedule_late_at(Tick when, u32 unit, EventFn fn,
                                        EventSource source) {
  CAMPS_ASSERT_MSG(when >= now_, "cannot schedule into the past");
  return queue_.schedule_late(when, unit, std::move(fn), source);
}

u64 Simulator::run() {
  u64 n = 0;
  while (step()) ++n;
  return n;
}

u64 Simulator::run_until(Tick deadline) {
  u64 n = 0;
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    step();
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  const EventSource source = queue_.next_source();
  running_unit_ = queue_.next_late_unit();
  auto [when, fn] = queue_.pop();
  CAMPS_ASSERT(when >= now_);
  now_ = when;
  fn();
  ++by_source_[static_cast<size_t>(source)];
  after_event();
  return true;
}

}  // namespace camps::sim
