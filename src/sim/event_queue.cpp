#include "sim/event_queue.hpp"

#include "common/assert.hpp"

namespace camps::sim {

EventHandle EventQueue::schedule(Tick when, EventFn fn, EventSource source) {
  return push(when, next_seq_, std::move(fn), source);
}

EventHandle EventQueue::schedule_late(Tick when, u32 unit, EventFn fn,
                                      EventSource source) {
  CAMPS_ASSERT(unit < (u32{1} << kUnitBits));
  const u64 key =
      kLateBit | (u64{unit} << kSeqBits) | (next_seq_ & kSeqMask);
  return push(when, key, std::move(fn), source);
}

EventHandle EventQueue::push(Tick when, u64 key, EventFn fn,
                             EventSource source) {
  u32 slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
    slab_[slot] = std::move(fn);
  } else {
    slot = static_cast<u32>(slab_.size());
    slab_.push_back(std::move(fn));
    meta_.push_back(SlotMeta{0, 0});
  }
  ++next_seq_;
  heap_.push_back(HeapEntry{when, key, slot, source});
  sift_up(heap_.size() - 1);
  return EventHandle{slot, meta_[slot].generation};
}

bool EventQueue::cancel(EventHandle handle) {
  if (!pending(handle)) return false;
  release(remove_at(meta_[handle.slot].heap_index));
  return true;
}

Tick EventQueue::next_time() const {
  CAMPS_ASSERT(!heap_.empty());
  return heap_.front().when;
}

std::pair<Tick, EventFn> EventQueue::pop() {
  CAMPS_ASSERT(!heap_.empty());
  const HeapEntry top = heap_.front();
  std::pair<Tick, EventFn> out{top.when, std::move(slab_[top.slot])};
  release(remove_at(0));
  return out;
}

void EventQueue::clear() {
  for (const HeapEntry& entry : heap_) release(entry.slot);
  heap_.clear();
}

u32 EventQueue::remove_at(size_t i) {
  const u32 slot = heap_[i].slot;
  heap_[i] = heap_.back();
  heap_.pop_back();
  if (i < heap_.size()) {
    if (i > 0 && earlier(heap_[i], heap_[(i - 1) / 2])) {
      sift_up(i);
    } else {
      sift_down(i);
    }
  }
  return slot;
}

void EventQueue::release(u32 slot) {
  slab_[slot].reset();
  ++meta_[slot].generation;
  free_.push_back(slot);
}

void EventQueue::sift_up(size_t i) {
  const HeapEntry entry = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!earlier(entry, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, entry);
}

void EventQueue::sift_down(size_t i) {
  const HeapEntry entry = heap_[i];
  const size_t n = heap_.size();
  while (true) {
    size_t child = 2 * i + 1;
    if (child >= n) break;
    const size_t right = child + 1;
    if (right < n && earlier(heap_[right], heap_[child])) child = right;
    if (!earlier(heap_[child], entry)) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, entry);
}

}  // namespace camps::sim
