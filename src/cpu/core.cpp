#include "cpu/core.hpp"

#include <algorithm>
#include <iterator>
#include <optional>
#include <span>

#include "common/assert.hpp"

namespace camps::cpu {
namespace {
u64 instrs_of(const trace::TraceRecord& record) {
  return u64{record.gap} + 1;
}
}  // namespace

Core::Core(sim::Simulator& sim, CoreId id, const CoreConfig& config,
           trace::TraceSource* trace, cache::CacheHierarchy* caches,
           PhaseFn on_warmed_up, PhaseFn on_measured)
    : sim_(sim),
      id_(id),
      cfg_(config),
      trace_(trace),
      caches_(caches),
      on_warmed_up_(std::move(on_warmed_up)),
      on_measured_(std::move(on_measured)),
      step_unit_(sim::late_unit::core(id)) {
  CAMPS_ASSERT(cfg_.issue_width >= 1);
  CAMPS_ASSERT(cfg_.max_outstanding_loads >= 1);
  CAMPS_ASSERT(trace_ != nullptr && caches_ != nullptr);
}

void Core::start() {
  cursor_ = sim_.now();
  hits_.reserve(cfg_.max_outstanding_loads);
  schedule_step(sim_.now());
}

void Core::schedule_step(Tick when) {
  // Late phase: a step runs after every ordinary event of its tick (memory
  // fills, other layers' work) and at a place fixed by its core id.
  step_ = sim_.schedule_late_at(when, step_unit_, [this] { step(); },
                                sim::EventSource::kCore);
}

Tick Core::issue_tick(Tick from) const {
  const u64 cycles =
      (instrs_of(*current_) + cfg_.issue_width - 1) / cfg_.issue_width;
  return from + cycles * sim::kCpuTicksPerCycle;
}

void Core::step() {
  if (halted_) return;
  ahead_.clear();  // every record issued ahead precedes this step
  retire_hits(sim_.now());
  if (current_) {
    // This step was planned at the current record's issue tick.
    if (stalled_) resume(resume_at_);
    CAMPS_ASSERT(issue_tick(cursor_) == sim_.now());
    issue();
  }
  run_ahead();
}

void Core::run_ahead() {
  for (u32 chained = 0;; ++chained) {
    current_ = trace_->next();
    if (!current_) break;
    if (chained == kMaxChain || !issue_ahead()) {
      plan();
      return;
    }
  }
  // The trace ended: halt at the last issue, in a step of its own if that
  // issue was ahead of now.
  if (cursor_ == sim_.now()) {
    halt();
  } else {
    step_ = sim_.schedule_late_at(cursor_, step_unit_, [this] { halt(); },
                                  sim::EventSource::kCore);
  }
}

bool Core::issue_ahead() {
  const Tick at = issue_tick(cursor_);
  const u64 instrs = instrs_of(*current_);
  const AccessType type = current_->type;
  if (crosses_phase(instrs)) return false;
  if (type == AccessType::kRead) {
    retire_hits(at);
    if (window_busy(at) >= cfg_.max_outstanding_loads) return false;
  }
  const auto done = caches_->access_ahead(id_, current_->addr, type, at);
  if (!done) return false;
  cursor_ = at;
  issued_ += instrs;
  if (type == AccessType::kRead) {
    ++loads_;
    ++outstanding_;
    hits_.push_back(*done);
  } else {
    ++stores_;
  }
  ahead_.push_back(AheadRecord{at, instrs, type, current_->addr});
  current_.reset();
  return true;
}

bool Core::crosses_phase(u64 instrs) const {
  const u64 after = issued_ + instrs;
  if (!warmup_tick_) return after >= cfg_.warmup_instructions;
  return !measure_tick_ &&
         after >= cfg_.warmup_instructions + cfg_.measure_instructions;
}

std::span<const Core::AheadRecord> Core::unreached() const {
  // The running event has reached (at, step_unit_) once `at` is past, or is
  // now and a late event of this unit or a later one is running.
  const Tick now = sim_.now();
  const std::optional<u32> unit = sim_.running_late_unit();
  auto first = ahead_.end();
  while (first != ahead_.begin()) {
    const Tick at = std::prev(first)->at;
    if (at < now || (at == now && unit && *unit >= step_unit_)) break;
    --first;
  }
  return {first, ahead_.end()};
}

u64 Core::instructions_issued() const {
  u64 n = issued_;
  for (const AheadRecord& r : unreached()) n -= r.instrs;
  return n;
}

u64 Core::loads() const {
  u64 n = loads_;
  for (const AheadRecord& r : unreached()) n -= r.type == AccessType::kRead;
  return n;
}

u64 Core::stores() const {
  u64 n = stores_;
  for (const AheadRecord& r : unreached()) n -= r.type == AccessType::kWrite;
  return n;
}

void Core::issue() {
  cursor_ = sim_.now();
  issued_ += instrs_of(*current_);
  if (current_->type == AccessType::kRead) {
    ++outstanding_;
    ++loads_;
    if (const auto done =
            caches_->read(id_, current_->addr, [this] { on_load_done(); })) {
      hits_.push_back(*done);
    } else {
      ++misses_;
    }
  } else {
    ++stores_;
    caches_->write(id_, current_->addr);
  }
  current_.reset();
  check_phases();
}

u32 Core::window_busy(Tick at, Tick* first_free) const {
  u32 busy = misses_;
  for (const Tick t : hits_) {
    if (t > at) {
      ++busy;
      if (first_free != nullptr) *first_free = std::min(*first_free, t);
    }
  }
  return busy;
}

void Core::plan() {
  const Tick issue_at = issue_tick(cursor_);
  if (current_->type == AccessType::kRead) {
    // The earliest hit completing after issue_at frees a slot.
    Tick first_free = kTickNever;
    if (window_busy(issue_at, &first_free) >= cfg_.max_outstanding_loads) {
      stalled_ = true;
      stall_start_ = issue_at;
      resume_at_ = first_free;
      // With only misses in flight, the first fill resumes the core.
      if (first_free != kTickNever) schedule_step(issue_tick(first_free));
      return;
    }
  }
  schedule_step(issue_at);
}

void Core::retire_hits(Tick at) {
  const auto done = std::remove_if(hits_.begin(), hits_.end(),
                                   [at](Tick t) { return t <= at; });
  outstanding_ -= static_cast<u32>(hits_.end() - done);
  hits_.erase(done, hits_.end());
}

void Core::resume(Tick at) {
  stalled_ = false;
  stall_ticks_ += at - stall_start_;
  cursor_ = at;
}

void Core::on_load_done() {
  CAMPS_ASSERT(misses_ > 0 && outstanding_ > 0);
  --misses_;
  --outstanding_;
  const Tick now = sim_.now();
  // Nothing changes unless this fill comes before the planned stall ends.
  if (!stalled_ || now >= resume_at_) return;
  if (now > stall_start_) {
    resume(now);  // the fill ends a stall under way
  } else {
    stalled_ = false;  // the slot frees before the record even issues
  }
  sim_.cancel(step_);
  plan();
}

void Core::check_phases() {
  if (!warmup_tick_ && issued_ >= cfg_.warmup_instructions) {
    warmup_tick_ = cursor_;
    if (on_warmed_up_) on_warmed_up_(id_);
  }
  if (warmup_tick_ && !measure_tick_ &&
      issued_ >= cfg_.warmup_instructions + cfg_.measure_instructions) {
    measure_tick_ = cursor_;
    measured_instructions_ = cfg_.measure_instructions;
    if (on_measured_) on_measured_(id_);
  }
}

void Core::halt() {
  halted_ = true;
  // A finite trace that ends early still completes the methodology phases
  // so the run can't deadlock waiting for this core.
  if (!warmup_tick_) {
    warmup_tick_ = cursor_;
    if (on_warmed_up_) on_warmed_up_(id_);
  }
  if (!measure_tick_) {
    measure_tick_ = cursor_;
    measured_instructions_ =
        issued_ > cfg_.warmup_instructions ? issued_ - cfg_.warmup_instructions
                                           : 0;
    if (on_measured_) on_measured_(id_);
  }
}

u64 Core::stall_cycles() const {
  Tick ticks = stall_ticks_;
  // A stall that a hit has ended, though the core has not stepped since.
  if (stalled_ && resume_at_ <= sim_.now()) ticks += resume_at_ - stall_start_;
  return ticks / sim::kCpuTicksPerCycle;
}

double Core::measured_ipc() const {
  if (!measure_tick_ || !warmup_tick_) return 0.0;
  const Tick span = *measure_tick_ - *warmup_tick_;
  if (span == 0) return 0.0;
  const double cycles =
      static_cast<double>(span) / static_cast<double>(sim::kCpuTicksPerCycle);
  return static_cast<double>(measured_instructions_) / cycles;
}

}  // namespace camps::cpu
