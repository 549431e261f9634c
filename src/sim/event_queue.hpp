// Discrete-event priority queue with cancellable handles.
//
// Each tick runs in two phases. Ordinary events (schedule()) run first, in
// insertion order (a monotone sequence number breaks heap ties). Late
// events (schedule_late()) run after every ordinary event of their tick,
// among themselves in ascending `unit` order, whenever they were scheduled.
// Both orders are independent of heap internals, so whole-system runs are
// bit-for-bit deterministic; and a late event's place within its tick
// depends only on (tick, unit), so moving one with cancel() +
// schedule_late() never reorders anything else. Vault wakes and core steps
// are late events; sim/event_tags.hpp owns their unit numbering and
// documents the resulting same-tick order (docs/simulation-model.md).
//
// Two hot-path design choices (perfbench's sim.queue_micro_events_per_s
// times them at the queue depth real runs reach):
//  * Event is a small-buffer-optimized functor: captures up to
//    Event::kInlineCapacity bytes live inside the event record, so the
//    common vault/core/cache callbacks never touch the heap. Larger or
//    over-aligned captures fall back to a heap allocation (counted, so
//    tests can assert the fast path stays fast).
//  * The queue is a key-in-heap index heap: the binary heap holds compact
//    (when, seq, slot) entries while the ~100-byte Event payloads sit in a
//    slab addressed by slot. Sifts compare and move 24-byte POD entries in
//    one contiguous array — no payload moves, no slab pointer chasing — and
//    freed slots are recycled through a free list.
//
// Removal: schedule() returns an EventHandle {slot, generation}. The sift
// loops keep a slot -> heap-position table, so cancel() finds the entry in
// O(1), fills the hole with the last heap entry and sifts that entry into
// place: a cancelled event leaves nothing behind. Every slot carries a
// generation that is bumped whenever its event fires, is cancelled or is
// cleared, so a handle goes stale the moment its event is gone; cancelling
// a stale handle is a no-op even after the slot has been recycled.
// Cancellation never renumbers the surviving events, so their (when, key)
// order is exactly what it would have been had the cancelled event fired
// as a no-op.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstring>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/audit.hpp"
#include "common/types.hpp"
#include "sim/event_tags.hpp"

namespace camps::sim {

/// A move-only `void()` callable with inline storage for small captures.
/// Drop-in for the hot subset of std::function<void()>: no copy, no
/// target-type queries, but also no heap allocation for any nothrow-movable
/// capture of at most kInlineCapacity bytes.
class Event {
 public:
  /// Sized to the largest scheduling capture in the simulator (HmcDevice
  /// forwards a MemRequest + DecodedAddr + tick = 80 bytes).
  static constexpr size_t kInlineCapacity = 88;

  Event() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Event> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Event(F&& f) {  // NOLINT(google-explicit-constructor): functor adaptor
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineCapacity &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      invoke_ = [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); };
      if constexpr (!std::is_trivially_copyable_v<Fn> ||
                    !std::is_trivially_destructible_v<Fn>) {
        manage_ = [](void* dst, void* src, Op op) {
          if (op == Op::kRelocate) {
            Fn* from = std::launder(reinterpret_cast<Fn*>(src));
            ::new (dst) Fn(std::move(*from));
            from->~Fn();
          } else {
            std::launder(reinterpret_cast<Fn*>(dst))->~Fn();
          }
        };
      }
    } else {
      heap_allocations_.fetch_add(1, std::memory_order_relaxed);
      heap_ = true;
      Fn* heap = new Fn(std::forward<F>(f));
      std::memcpy(buf_, &heap, sizeof heap);
      invoke_ = [](void* p) {
        Fn* fn;
        std::memcpy(&fn, p, sizeof fn);
        (*fn)();
      };
      manage_ = [](void* dst, void* src, Op op) {
        if (op == Op::kRelocate) {
          std::memcpy(dst, src, sizeof(Fn*));
        } else {
          Fn* fn;
          std::memcpy(&fn, dst, sizeof fn);
          delete fn;
        }
      };
    }
  }

  Event(Event&& other) noexcept { move_from(other); }
  Event& operator=(Event&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;
  ~Event() { reset(); }

  void operator()() { invoke_(buf_); }

  explicit operator bool() const { return invoke_ != nullptr; }

  /// True if the capture lives in the inline buffer (no heap allocation).
  bool is_inline() const { return invoke_ != nullptr && !heap_; }

  void reset() {
    if (invoke_ && manage_) manage_(buf_, nullptr, Op::kDestroy);
    invoke_ = nullptr;
    manage_ = nullptr;
    heap_ = false;
  }

  /// Process-wide count of events whose capture spilled to the heap. A hot
  /// loop staying allocation-free shows up here as a flat line; tests and
  /// the microbenchmark assert on deltas.
  static u64 heap_allocation_count() {
    return heap_allocations_.load(std::memory_order_relaxed);
  }

 private:
  enum class Op { kRelocate, kDestroy };

  void move_from(Event& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    heap_ = other.heap_;
    if (invoke_) {
      if (manage_) {
        manage_(buf_, other.buf_, Op::kRelocate);
      } else {
        std::memcpy(buf_, other.buf_, kInlineCapacity);
      }
    }
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
    other.heap_ = false;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineCapacity];
  void (*invoke_)(void*) = nullptr;
  /// Non-null only when relocation/destruction is non-trivial (inline
  /// non-trivially-copyable capture, or heap-spilled capture).
  void (*manage_)(void* dst, void* src, Op op) = nullptr;
  bool heap_ = false;

  static inline std::atomic<u64> heap_allocations_{0};
};

using EventFn = Event;

/// Names one scheduled event. Default-constructed handles name nothing.
struct EventHandle {
  u32 slot = ~u32{0};
  u32 generation = 0;
};

class EventQueue final {
 public:
  /// Schedules `fn` to run at absolute time `when`. `when` must not precede
  /// the time of the most recently popped event. `source` only tags the
  /// event for per-layer counting (next_source()).
  EventHandle schedule(Tick when, EventFn fn,
                       EventSource source = EventSource::kOther);

  /// Schedules `fn` in the late phase of tick `when`: after every ordinary
  /// event of that tick (also ones scheduled later), and among late events
  /// of the tick in ascending `unit` order, then insertion order. `unit`
  /// must be below 2^kUnitBits. A late event that schedules another at its
  /// own tick sees it run next, so the unit order holds for late events
  /// scheduled before their tick's late phase begins.
  EventHandle schedule_late(Tick when, u32 unit, EventFn fn,
                            EventSource source = EventSource::kOther);

  /// Removes the event `handle` names without running it. Returns false,
  /// and changes nothing, if the handle is stale: its event already fired
  /// or was cancelled (the slot may since hold an unrelated event).
  bool cancel(EventHandle handle);

  /// True while the event `handle` names is still queued. A slot's
  /// generation moves on the moment its event leaves the queue, so a match
  /// means the slot still holds this handle's event.
  bool pending(EventHandle handle) const {
    return handle.slot < meta_.size() &&
           meta_[handle.slot].generation == handle.generation;
  }

  /// Tick at which the event `handle` names will run. Requires pending().
  Tick time_of(EventHandle handle) const {
    return heap_[meta_[handle.slot].heap_index].when;
  }

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  /// Time of the earliest pending event. Requires !empty().
  Tick next_time() const;

  /// Source tag of the earliest pending event. Requires !empty().
  EventSource next_source() const { return heap_.front().source; }

  /// Late unit of the earliest pending event, or nullopt if it is an
  /// ordinary event. Requires !empty().
  std::optional<u32> next_late_unit() const {
    const u64 key = heap_.front().seq;
    if ((key & kLateBit) == 0) return std::nullopt;
    return static_cast<u32>((key & ~kLateBit) >> kSeqBits);
  }

  /// Pops and returns the earliest event. Requires !empty().
  std::pair<Tick, EventFn> pop();

  /// Total events ever scheduled (for stats / tests).
  u64 scheduled_count() const { return next_seq_; }

  void clear();

  /// Late events' `unit` field width (see schedule_late()).
  static constexpr u32 kUnitBits = 23;

  /// Invariants: the heap is a valid min-heap over (when, key); the in-heap
  /// slots and the free list exactly partition the slab; every in-heap slot
  /// holds a live event and every free slot an empty one; sequence numbers
  /// are distinct and below next_seq_; the slot -> heap-position table
  /// points each queued slot at its own heap entry; and every slot's
  /// generation counts the events it has retired, so the generations plus
  /// the queued events total every event ever scheduled.
  void audit(check::AuditReporter& reporter) const;

 private:
  friend struct check::TestCorruptor;

  /// Heap node: the full sort key plus the slab slot of the payload. Keeping
  /// the key here (instead of dereferencing the slab in the comparator) keeps
  /// sift traffic inside one contiguous, trivially-movable array.
  ///
  /// `seq` is an ordinary event's sequence number. A late event sets
  /// kLateBit, puts its unit in the kUnitBits below it and keeps the low
  /// kSeqBits of its sequence number, so one integer compare orders a tick
  /// as ordinary events by sequence, then late events by (unit, sequence).
  struct HeapEntry {
    Tick when;
    u64 seq;
    u32 slot;
    EventSource source;  ///< Fits the padding: the entry stays 24 bytes.
  };
  static_assert(sizeof(HeapEntry) == 24);

  static constexpr u32 kSeqBits = 40;
  static constexpr u64 kLateBit = u64{1} << 63;
  static constexpr u64 kSeqMask = (u64{1} << kSeqBits) - 1;
  static_assert(kSeqBits + kUnitBits == 63);

  /// The sequence number a heap key was built from.
  static u64 sequence_of(u64 key) {
    return (key & kLateBit) != 0 ? key & kSeqMask : key;
  }

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  /// Stores `fn` in a slot and queues it under key (when, key).
  EventHandle push(Tick when, u64 key, EventFn fn, EventSource source);

  /// Per-slot bookkeeping, parallel to slab_.
  struct SlotMeta {
    u32 heap_index;  ///< Position in heap_ while the slot is queued.
    u32 generation;  ///< Events this slot has retired (fired or cancelled).
  };

  /// Stores `entry` at heap position `i` and records the position.
  void place(size_t i, const HeapEntry& entry) {
    heap_[i] = entry;
    meta_[entry.slot].heap_index = static_cast<u32>(i);
  }
  void sift_up(size_t i);
  void sift_down(size_t i);
  /// Removes heap_[i] and returns its slot, restoring the heap shape.
  u32 remove_at(size_t i);
  /// Retires a slot whose event has left the heap: the payload is already
  /// moved out or destroyed, outstanding handles go stale.
  void release(u32 slot);

  std::vector<Event> slab_;      ///< Payloads, addressed by HeapEntry::slot.
  std::vector<SlotMeta> meta_;   ///< Parallel to slab_.
  std::vector<HeapEntry> heap_;  ///< Min-heap keyed (when, seq).
  std::vector<u32> free_;        ///< Recycled slab slots.
  u64 next_seq_ = 0;
};

static_assert(check::Auditable<EventQueue>);
static_assert(late_unit::kVaults + late_unit::kCores <=
              (u32{1} << EventQueue::kUnitBits));

}  // namespace camps::sim
