// Cold-path audit() definitions for the event queue and simulator
// (contract: check/audit.hpp; invariant catalog: docs/static_analysis.md).
// Kept out of the hot translation units so the audit code — which runs
// every N-hundred-thousand events, or never — does not dilute their .text.

#include <set>
#include <string>

#include "check/audit.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace camps {

void sim::EventQueue::audit(check::AuditReporter& rep) const {
  const check::AuditScope scope(rep, "event_queue");

  // Heap shape: every node sorts no earlier than its parent.
  for (size_t i = 1; i < heap_.size(); ++i) {
    const size_t parent = (i - 1) / 2;
    rep.expect(!earlier(heap_[i], heap_[parent]), "heap-order",
               "heap[" + std::to_string(i) + "] (when=" +
                   std::to_string(heap_[i].when) + ", seq=" +
                   std::to_string(heap_[i].seq) +
                   ") sorts earlier than its parent heap[" +
                   std::to_string(parent) + "] (when=" +
                   std::to_string(heap_[parent].when) + ", seq=" +
                   std::to_string(heap_[parent].seq) + ")");
  }

  // Slab partition: heap slots and free slots are disjoint, in range, and
  // together cover the slab exactly once.
  rep.expect(heap_.size() + free_.size() == slab_.size(), "slab-partition",
             "heap (" + std::to_string(heap_.size()) + ") + free list (" +
                 std::to_string(free_.size()) + ") != slab size (" +
                 std::to_string(slab_.size()) + ")");
  std::set<u32> seen_slots;
  std::set<u64> seen_seqs;
  for (const HeapEntry& entry : heap_) {
    if (!rep.expect(entry.slot < slab_.size(), "slot-range",
                    "heap entry references slot " +
                        std::to_string(entry.slot) + " outside slab of " +
                        std::to_string(slab_.size()))) {
      continue;
    }
    rep.expect(seen_slots.insert(entry.slot).second, "slot-duplicate",
               "slot " + std::to_string(entry.slot) +
                   " appears twice in the heap");
    rep.expect(static_cast<bool>(slab_[entry.slot]), "slot-live",
               "in-heap slot " + std::to_string(entry.slot) +
                   " holds an empty event");
    const u64 seq = sequence_of(entry.seq);
    rep.expect(seq < next_seq_, "seq-range",
               "heap seq " + std::to_string(seq) + " >= next_seq " +
                   std::to_string(next_seq_));
    rep.expect(seen_seqs.insert(seq).second, "seq-duplicate",
               "sequence number " + std::to_string(seq) +
                   " appears twice (tie-break order would be ambiguous)");
  }
  // Position table: parallel to the slab, each queued slot pointing at its
  // own heap entry (a stale position would make cancel() remove the wrong
  // event).
  rep.expect(meta_.size() == slab_.size(), "index-shape",
             "position table covers " + std::to_string(meta_.size()) +
                 " slots of a slab of " + std::to_string(slab_.size()));
  for (size_t i = 0; i < heap_.size(); ++i) {
    const u32 slot = heap_[i].slot;
    if (slot >= meta_.size()) continue;  // reported above
    rep.expect(meta_[slot].heap_index == i, "index-mismatch",
               "slot " + std::to_string(slot) + " sits at heap[" +
                   std::to_string(i) + "] but its position entry says " +
                   std::to_string(meta_[slot].heap_index));
  }
  // Generations: each slot's generation counts the events it retired, so
  // they plus the queued events account for every event ever scheduled. A
  // generation that failed to advance would let a stale handle cancel the
  // event that recycled its slot.
  u64 retired = 0;
  for (const SlotMeta& m : meta_) retired += m.generation;
  rep.expect(retired + heap_.size() == next_seq_, "generation-count",
             "slot generations retire " + std::to_string(retired) +
                 " events and " + std::to_string(heap_.size()) +
                 " are queued, but " + std::to_string(next_seq_) +
                 " were scheduled");

  for (const u32 slot : free_) {
    if (!rep.expect(slot < slab_.size(), "slot-range",
                    "free-list slot " + std::to_string(slot) +
                        " outside slab of " + std::to_string(slab_.size()))) {
      continue;
    }
    rep.expect(seen_slots.insert(slot).second, "slot-duplicate",
               "slot " + std::to_string(slot) +
                   " is both in the heap and on the free list (or listed "
                   "free twice)");
    rep.expect(!static_cast<bool>(slab_[slot]), "slot-leak",
               "free slot " + std::to_string(slot) +
                   " still holds a live event");
  }
}

void sim::Simulator::audit(check::AuditReporter& rep) const {
  const check::AuditScope scope(rep, "sim");
  if (!queue_.empty()) {
    rep.expect(now_ <= queue_.next_time(), "time-monotone",
               "now (" + std::to_string(now_) +
                   ") is past the earliest pending event (" +
                   std::to_string(queue_.next_time()) + ")");
  }
  u64 by_source = 0;
  for (const u64 n : by_source_) by_source += n;
  rep.expect(by_source == executed_, "source-count",
             "per-source counts sum to " + std::to_string(by_source) +
                 " but " + std::to_string(executed_) +
                 " events were executed");
  queue_.audit(rep);
}

}  // namespace camps
