#include "cache/cache.hpp"

#include <bit>
#include <optional>

#include "common/assert.hpp"

namespace camps::cache {
namespace {
bool is_pow2(u64 v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

bool CacheConfig::valid() const {
  return is_pow2(line_bytes) && ways >= 1 && size_bytes >= line_bytes * ways &&
         size_bytes % (line_bytes * ways) == 0 && is_pow2(sets());
}

Cache::Cache(const CacheConfig& config) : cfg_(config) {
  CAMPS_ASSERT_MSG(cfg_.valid(), "invalid cache configuration");
  lines_.resize(cfg_.sets() * cfg_.ways);
  lru_clock_.resize(cfg_.sets(), 0);
}

u64 Cache::set_index(Addr addr) const {
  return (addr / cfg_.line_bytes) % cfg_.sets();
}

u64 Cache::tag_of(Addr addr) const {
  return (addr / cfg_.line_bytes) / cfg_.sets();
}

Cache::Line* Cache::find(Addr addr) {
  const u64 set = set_index(addr);
  const u64 tag = tag_of(addr);
  for (u32 w = 0; w < cfg_.ways; ++w) {
    Line& line = lines_[set * cfg_.ways + w];
    if (line.valid && line.tag == tag) return &line;
  }
  return nullptr;
}

const Cache::Line* Cache::find(Addr addr) const {
  return const_cast<Cache*>(this)->find(addr);
}

void Cache::touch(u64 set, Line& line) { line.lru = ++lru_clock_[set]; }

bool Cache::access(Addr addr, AccessType type) {
  if (access_if_present(addr, type)) return true;
  ++misses_;
  return false;
}

bool Cache::access_if_present(Addr addr, AccessType type) {
  Line* line = find(addr);
  if (line == nullptr) return false;
  ++hits_;
  touch(set_index(addr), *line);
  if (type == AccessType::kWrite) line->dirty = true;
  return true;
}

bool Cache::probe(Addr addr) const { return find(addr) != nullptr; }

size_t Cache::victim_slot(u64 set, const Line* mru) const {
  const Line* const ways = lines_.data() + set * cfg_.ways;
  const Line* victim = nullptr;
  for (const Line* line = ways; line != ways + cfg_.ways; ++line) {
    if (!line->valid) return static_cast<size_t>(line - lines_.data());
    if (line == mru) continue;
    if (victim == nullptr || line->lru < victim->lru) victim = line;
  }
  if (victim == nullptr) victim = mru;  // one way: the MRU line itself goes
  return static_cast<size_t>(victim - lines_.data());
}

Victim Cache::victim_record(u64 set, const Line& line) const {
  return Victim{.line_addr = (line.tag * cfg_.sets() + set) * cfg_.line_bytes,
                .dirty = line.dirty};
}

std::optional<Victim> Cache::victim_of(Addr addr,
                                       std::optional<Addr> mru) const {
  if (find(addr) != nullptr) return std::nullopt;
  const u64 set = set_index(addr);
  const Line* keep = nullptr;
  if (mru && set_index(*mru) == set) {
    keep = find(*mru);
    CAMPS_ASSERT(keep != nullptr);
  }
  const Line& victim = lines_[victim_slot(set, keep)];
  if (!victim.valid) return std::nullopt;
  return victim_record(set, victim);
}

std::optional<Victim> Cache::fill(Addr addr, bool dirty) {
  if (Line* present = find(addr)) {
    present->dirty |= dirty;
    touch(set_index(addr), *present);
    return std::nullopt;
  }
  const u64 set = set_index(addr);
  Line& victim = lines_[victim_slot(set, nullptr)];
  std::optional<Victim> out;
  if (victim.valid) {
    ++evictions_;
    if (victim.dirty) ++dirty_evictions_;
    out = victim_record(set, victim);
  }
  victim.valid = true;
  victim.tag = tag_of(addr);
  victim.dirty = dirty;
  touch(set, victim);
  return out;
}

std::optional<bool> Cache::invalidate(Addr addr) {
  Line* line = find(addr);
  if (line == nullptr) return std::nullopt;
  const bool dirty = line->dirty;
  *line = Line{};
  return dirty;
}

}  // namespace camps::cache
