#include "cache/cache.hpp"

#include <bit>
#include <optional>
#include <string>

#include "common/assert.hpp"

namespace camps::cache {
namespace {
bool is_pow2(u64 v) { return v != 0 && (v & (v - 1)) == 0; }

/// Tags below this fit a key: (tag + 1) << 1 stays within 32 bits.
constexpr u64 kTagLimit = (u64{1} << 31) - 1;

std::string tag_overflow(Addr addr, u64 tag) {
  return "address " + std::to_string(addr) + " has tag " +
         std::to_string(tag) + ", which does not fit the 31-bit cache key";
}
}  // namespace

bool CacheConfig::valid() const {
  return is_pow2(line_bytes) && ways >= 1 && size_bytes >= line_bytes * ways &&
         size_bytes % (line_bytes * ways) == 0 && is_pow2(sets());
}

Cache::Cache(const CacheConfig& config) : cfg_(config) {
  CAMPS_ASSERT_MSG(cfg_.valid(), "invalid cache configuration");
  line_shift_ = static_cast<u32>(std::countr_zero(cfg_.line_bytes));
  tag_shift_ = line_shift_ + static_cast<u32>(std::countr_zero(cfg_.sets()));
  set_mask_ = cfg_.sets() - 1;
  keys_.resize(cfg_.sets() * cfg_.ways, kInvalid);
  stamps_.resize(keys_.size(), 0);
  lru_clock_.resize(cfg_.sets(), 0);
}

u32 Cache::key_of(Addr addr) const {
  const u64 tag = addr >> tag_shift_;
  CAMPS_ASSERT_MSG(tag < kTagLimit, tag_overflow(addr, tag).c_str());
  return static_cast<u32>((tag + 1) << 1);
}

u32 Cache::find_way(u64 set, u32 key) const {
  const u32* const keys = keys_.data() + first_way(set);
  for (u32 w = 0; w < cfg_.ways; ++w) {
    if ((keys[w] & ~kDirty) == key) return w;
  }
  return cfg_.ways;
}

Cache::Slot Cache::scan(u64 set, u32 key, u32 keep) const {
  const u32* const keys = keys_.data() + first_way(set);
  const u32* const stamps = stamps_.data() + first_way(set);
  u32 victim = cfg_.ways;
  bool free = false;
  for (u32 w = 0; w < cfg_.ways; ++w) {
    const u32 k = keys[w];
    if ((k & ~kDirty) == key) return Slot{w, w};
    if (free || w == keep) continue;
    if (k == kInvalid) {
      victim = w;
      free = true;
    } else if (victim == cfg_.ways || stamps[w] < stamps[victim]) {
      victim = w;
    }
  }
  if (victim == cfg_.ways) victim = keep;  // one way: the kept line goes
  return Slot{cfg_.ways, victim};
}

bool Cache::access(Addr addr, AccessType type) {
  if (access_if_present(addr, type)) return true;
  ++misses_;
  return false;
}

bool Cache::access_if_present(Addr addr, AccessType type) {
  const u64 set = set_index(addr);
  const u32 way = find_way(set, key_of(addr));
  if (way == cfg_.ways) return false;
  ++hits_;
  touch(set, way);
  if (type == AccessType::kWrite) keys_[first_way(set) + way] |= kDirty;
  return true;
}

bool Cache::probe(Addr addr) const {
  return find_way(set_index(addr), key_of(addr)) != cfg_.ways;
}

Victim Cache::victim_record(u64 set, u32 key) const {
  const u64 tag = (key >> 1) - 1;
  return Victim{.line_addr = (tag << tag_shift_) | (set << line_shift_),
                .dirty = (key & kDirty) != 0};
}

std::optional<Victim> Cache::victim_of(Addr addr,
                                       std::optional<Addr> mru) const {
  const u64 set = set_index(addr);
  const bool keep_mru = mru && set_index(*mru) == set;
  const u32 keep = keep_mru ? find_way(set, key_of(*mru)) : cfg_.ways;
  const Slot slot = scan(set, key_of(addr), keep);
  if (slot.hit != cfg_.ways) return std::nullopt;
  CAMPS_ASSERT(!keep_mru || keep != cfg_.ways);
  const u32 victim = keys_[first_way(set) + slot.victim];
  if (victim == kInvalid) return std::nullopt;
  return victim_record(set, victim);
}

std::optional<Victim> Cache::fill(Addr addr, bool dirty) {
  const u64 set = set_index(addr);
  const u32 key = key_of(addr);
  const Slot slot = scan(set, key, cfg_.ways);
  const u32 way = slot.hit != cfg_.ways ? slot.hit : slot.victim;
  u32& line = keys_[first_way(set) + way];
  std::optional<Victim> out;
  if (slot.hit != cfg_.ways) {
    line |= dirty ? kDirty : 0;
  } else {
    if (line != kInvalid) {
      ++evictions_;
      if ((line & kDirty) != 0) ++dirty_evictions_;
      out = victim_record(set, line);
    }
    line = key | (dirty ? kDirty : 0);
  }
  touch(set, way);
  return out;
}

std::optional<bool> Cache::invalidate(Addr addr) {
  const u64 set = set_index(addr);
  const u32 way = find_way(set, key_of(addr));
  if (way == cfg_.ways) return std::nullopt;
  u32& line = keys_[first_way(set) + way];
  const bool dirty = (line & kDirty) != 0;
  line = kInvalid;
  return dirty;
}

}  // namespace camps::cache
