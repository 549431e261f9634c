#include "prefetch/prefetch_buffer.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/assert.hpp"

namespace camps::prefetch {

PrefetchBuffer::PrefetchBuffer(const PrefetchBufferConfig& config,
                               u32 lines_per_row,
                               std::unique_ptr<ReplacementPolicy> policy)
    : cfg_(config),
      lines_per_row_(lines_per_row),
      policy_(std::move(policy)),
      slots_(config.entries) {
  CAMPS_ASSERT(cfg_.entries > 0);
  CAMPS_ASSERT_MSG(lines_per_row_ >= 1 && lines_per_row_ <= 64,
                   "reference bitmap is a u64");
  CAMPS_ASSERT(policy_ != nullptr);
  mru_order_.reserve(cfg_.entries);
  evict_util_hist_.assign(lines_per_row_ + 1, 0);
  evict_unused_hist_.assign(lines_per_row_ + 1, 0);
}

std::optional<u32> PrefetchBuffer::find(BankRow row) const {
  for (u32 i = 0; i < slots_.size(); ++i) {
    if (slots_[i].valid && slots_[i].id == row) return i;
  }
  return std::nullopt;
}

bool PrefetchBuffer::contains(BankRow row) const {
  return find(row).has_value();
}

u32 PrefetchBuffer::recency_of_position(size_t pos) const {
  // MRU (pos 0) always reads entries-1, per Section 3.2; the LRU of a full
  // buffer reads 0.
  return cfg_.entries - 1 - static_cast<u32>(pos);
}

std::optional<u32> PrefetchBuffer::recency(BankRow row) const {
  const auto slot = find(row);
  if (!slot) return std::nullopt;
  const auto pos = std::find(mru_order_.begin(), mru_order_.end(), *slot) -
                   mru_order_.begin();
  return recency_of_position(static_cast<size_t>(pos));
}

std::optional<u32> PrefetchBuffer::utilization(BankRow row) const {
  const auto slot = find(row);
  if (!slot) return std::nullopt;
  return slots_[*slot].utilization;
}

void PrefetchBuffer::touch_mru(u32 slot) {
  const auto it = std::find(mru_order_.begin(), mru_order_.end(), slot);
  CAMPS_ASSERT(it != mru_order_.end());
  mru_order_.erase(it);
  mru_order_.insert(mru_order_.begin(), slot);
}

bool PrefetchBuffer::access(BankRow row, LineId line, AccessType type,
                            bool fill_touch) {
  CAMPS_ASSERT(line < lines_per_row_);
  const auto slot = find(row);
  if (!slot) {
    ++misses_;
    return false;
  }
  Entry& e = slots_[*slot];
  const u64 bit = u64{1} << line;
  if (fill_touch) {
    // The line that triggered the fetch: its data was transferred, but it
    // neither proves the prefetch useful nor raises retention value.
    e.seed_bitmap |= bit;
  } else {
    if ((e.accessed_bitmap & bit) == 0) {
      e.accessed_bitmap |= bit;
      ++e.utilization;
    }
    ++e.useful_refs;
    ++hits_;
  }
  if (type == AccessType::kWrite) e.dirty = true;
  touch_mru(*slot);
  return true;
}

std::vector<VictimCandidate> PrefetchBuffer::candidates() const {
  std::vector<VictimCandidate> out;
  out.reserve(mru_order_.size());
  for (size_t pos = 0; pos < mru_order_.size(); ++pos) {
    const Entry& e = slots_[mru_order_[pos]];
    out.push_back(VictimCandidate{
        .slot = mru_order_[pos],
        .utilization = e.utilization,
        .recency = recency_of_position(pos),
        .fully_used = e.fully_transferred(lines_per_row_),
    });
  }
  return out;
}

EvictedRow PrefetchBuffer::pop_slot(u32 slot) {
  Entry& e = slots_[slot];
  CAMPS_ASSERT(e.valid);
  EvictedRow victim{
      .id = e.id,
      .referenced = e.useful_refs != 0,
      .dirty = e.dirty,
      .utilization = e.utilization,
  };
  ++finished_rows_;
  const u32 bucket = std::min(victim.utilization, lines_per_row_);
  ++evict_util_hist_[bucket];
  if (victim.referenced) ++finished_referenced_;
  if (!victim.referenced) {
    ++evicted_unreferenced_;
    ++evict_unused_hist_[bucket];
  }
  if (victim.dirty) ++dirty_writebacks_;
  ++evictions_;
  e = Entry{};
  const auto it = std::find(mru_order_.begin(), mru_order_.end(), slot);
  CAMPS_ASSERT(it != mru_order_.end());
  mru_order_.erase(it);
  return victim;
}

std::optional<u64> PrefetchBuffer::insert_stamp(BankRow row) const {
  const auto slot = find(row);
  if (!slot) return std::nullopt;
  return slots_[*slot].insert_stamp;
}

InsertResult PrefetchBuffer::insert(BankRow row, u64 seed_bitmap,
                                    u64 stamp) {
  InsertResult result;
  if (contains(row)) return result;
  if (lines_per_row_ < 64) {
    seed_bitmap &= (u64{1} << lines_per_row_) - 1;
  }

  if (mru_order_.size() == cfg_.entries) {
    const u32 victim_slot = policy_->pick_victim(candidates());
    CAMPS_ASSERT_MSG(victim_slot < slots_.size() && slots_[victim_slot].valid,
                     "policy returned an invalid victim");
    result.victim = pop_slot(victim_slot);
  }

  // Find a free slot (one must exist now).
  u32 free = cfg_.entries;
  for (u32 i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].valid) {
      free = i;
      break;
    }
  }
  CAMPS_ASSERT(free < cfg_.entries);
  slots_[free] = Entry{.id = row,
                       .seed_bitmap = seed_bitmap,
                       .accessed_bitmap = 0,
                       .utilization = 0,
                       .useful_refs = 0,
                       .insert_stamp = stamp,
                       .dirty = false,
                       .valid = true};
  mru_order_.insert(mru_order_.begin(), free);
  ++inserts_;
  result.inserted = true;
  if (trace_ != nullptr) {
    // Instant markers on the vault lane; the span id folds (bank, row) so a
    // viewer query can follow one row's residency.
    const Tick at = stamp * trace_ticks_per_stamp_;
    trace_->record(obs::Stage::kPfInsert, trace_track_,
                   (u64{row.bank} << 40) | row.row, at, at);
    if (result.victim) {
      trace_->record(obs::Stage::kPfEvict, trace_track_,
                     (u64{result.victim->id.bank} << 40) |
                         result.victim->id.row,
                     at, at);
    }
  }
  return result;
}

bool PrefetchBuffer::evict(BankRow row) {
  const auto slot = find(row);
  if (!slot) return false;
  pop_slot(*slot);
  return true;
}

std::vector<EvictedRow> PrefetchBuffer::flush() {
  std::vector<EvictedRow> victims;
  victims.reserve(mru_order_.size());
  while (!mru_order_.empty()) {
    victims.push_back(pop_slot(mru_order_.front()));
  }
  return victims;
}

void PrefetchBuffer::reset_stats() {
  hits_ = misses_ = inserts_ = evictions_ = 0;
  evicted_unreferenced_ = dirty_writebacks_ = 0;
  finished_rows_ = finished_referenced_ = 0;
  std::fill(evict_util_hist_.begin(), evict_util_hist_.end(), 0);
  std::fill(evict_unused_hist_.begin(), evict_unused_hist_.end(), 0);
}

double PrefetchBuffer::row_accuracy() const {
  // Count rows that have left the buffer plus resident rows, crediting any
  // row that was referenced at least once.
  u64 total = finished_rows_;
  u64 useful = finished_referenced_;
  for (const auto& e : slots_) {
    if (!e.valid) continue;
    ++total;
    if (e.useful_refs != 0) ++useful;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(useful) / static_cast<double>(total);
}

}  // namespace camps::prefetch
