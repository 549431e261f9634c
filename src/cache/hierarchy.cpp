#include "cache/hierarchy.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/assert.hpp"

namespace camps::cache {

CacheHierarchy::CacheHierarchy(sim::Simulator& sim,
                               const HierarchyConfig& config, u32 cores,
                               MemoryPort* memory)
    : sim_(sim),
      cfg_(config),
      l3_(config.l3),
      memory_(memory),
      pending_fills_(cores * config.l1.sets(), 0),
      l1_sets_(config.l1.sets()) {
  CAMPS_ASSERT(cores > 0);
  CAMPS_ASSERT(memory_ != nullptr);
  CAMPS_ASSERT(config.l1.line_bytes == config.l3.line_bytes &&
               config.l2.line_bytes == config.l3.line_bytes);
  // Set counts are powers of two, so each L2 set maps into one L1 set and
  // the pending-fill count per L1 set covers its L2 sets (access_ahead).
  CAMPS_ASSERT(config.l2.sets() >= config.l1.sets());
  l1_.reserve(cores);
  l2_.reserve(cores);
  for (u32 c = 0; c < cores; ++c) {
    l1_.push_back(std::make_unique<Cache>(config.l1));
    l2_.push_back(std::make_unique<Cache>(config.l2));
  }
}

void CacheHierarchy::reset_stats() {
  settle_hits();
  for (auto& c : l1_) c->reset_stats();
  for (auto& c : l2_) c->reset_stats();
  l3_.reset_stats();
  memory_reads_ = memory_writes_ = 0;
  load_latency_cycles_ = loads_completed_ = 0;
}

void CacheHierarchy::settle_hits() {
  const Tick now = sim_.now();
  size_t kept = 0;
  for (const PendingHit& hit : pending_hits_) {
    if (hit.done <= now) {
      ++loads_completed_;
      load_latency_cycles_ += hit.cycles;
    } else {
      pending_hits_[kept++] = hit;
    }
  }
  pending_hits_.resize(kept);
  settle_at_ = std::max(kMinSettle, 2 * kept);
}

void CacheHierarchy::add_pending_hit(Tick done, u32 cycles) {
  if (pending_hits_.size() >= settle_at_) settle_hits();
  pending_hits_.push_back(PendingHit{done, cycles});
}

void CacheHierarchy::completed_hits(u64& count, u64& cycles) const {
  for (const PendingHit& hit : pending_hits_) {
    if (hit.done <= sim_.now()) {
      ++count;
      cycles += hit.cycles;
    }
  }
}

u64 CacheHierarchy::loads_completed() const {
  u64 count = loads_completed_, cycles = 0;
  completed_hits(count, cycles);
  return count;
}

u64 CacheHierarchy::load_latency_cycles() const {
  u64 count = 0, cycles = load_latency_cycles_;
  completed_hits(count, cycles);
  return cycles;
}

double CacheHierarchy::amat_cycles() const {
  u64 count = loads_completed_, cycles = load_latency_cycles_;
  completed_hits(count, cycles);
  return count == 0 ? 0.0
                    : static_cast<double>(cycles) / static_cast<double>(count);
}

namespace {
Addr align(Addr addr, u64 line_bytes) { return addr - addr % line_bytes; }
}  // namespace

// Fill helpers: victims cascade downward; dirty L3 victims become memory
// writes. Clean victims are dropped (no traffic).

void CacheHierarchy::fill_level(Cache& cache, Addr addr, bool dirty,
                                CoreId core, bool is_l3) {
  const auto victim = cache.fill(addr, dirty);
  if (!victim || !victim->dirty) return;
  if (is_l3) {
    ++memory_writes_;
    memory_->mem_write(victim->line_addr, core);
  } else if (&cache == l1_[core].get()) {
    fill_level(*l2_[core], victim->line_addr, true, core, false);
  } else {
    fill_level(l3_, victim->line_addr, true, core, true);
  }
}

u32 CacheHierarchy::lookup_path(CoreId core, Addr addr, AccessType type,
                                u32& cycles) {
  cycles += cfg_.l1.hit_latency;
  if (l1_[core]->access(addr, type)) return 1;
  cycles += cfg_.l2.hit_latency;
  if (l2_[core]->access(addr, AccessType::kRead)) return 2;
  cycles += cfg_.l3.hit_latency;
  if (l3_.access(addr, AccessType::kRead)) return 3;
  return 0;
}

void CacheHierarchy::complete_load(Tick issued, DoneFn done) {
  ++loads_completed_;
  load_latency_cycles_ += (sim_.now() - issued) / sim::kCpuTicksPerCycle;
  if (done) done();
}

std::optional<Tick> CacheHierarchy::read(CoreId core, Addr addr,
                                         DoneFn done) {
  const Addr line = align(addr, cfg_.l3.line_bytes);
  const Tick issued = sim_.now();
  u32 cycles = 0;
  const u32 level = lookup_path(core, line, AccessType::kRead, cycles);
  if (level != 0) {
    if (level >= 3) fill_level(*l2_[core], line, false, core, false);
    if (level >= 2) fill_level(*l1_[core], line, false, core, false);
    const Tick done_at = issued + Tick{cycles} * sim::kCpuTicksPerCycle;
    add_pending_hit(done_at, cycles);
    return done_at;
  }

  // L3 miss: register with the MSHRs; the first miss launches the fetch
  // after the full lookup latency has elapsed.
  ++pending_fills_[fill_slot(core, line)];
  auto waiter = [this, core, line, issued, done = std::move(done)]() mutable {
    --pending_fills_[fill_slot(core, line)];
    fill_level(*l2_[core], line, false, core, false);
    fill_level(*l1_[core], line, false, core, false);
    complete_load(issued, std::move(done));
  };
  allocate_miss(line, core, cycles, std::move(waiter));
  return std::nullopt;
}

std::optional<Tick> CacheHierarchy::access_ahead(CoreId core, Addr addr,
                                                 AccessType type, Tick at) {
  const Addr line = align(addr, cfg_.l3.line_bytes);
  if (pending_fills_[fill_slot(core, line)] != 0) return std::nullopt;
  Cache& l1 = *l1_[core];
  u32 cycles = cfg_.l1.hit_latency;
  if (!l1.access_if_present(line, type)) {
    // An L2 hit refills this L1 set, and a dirty L1 victim goes into its
    // L2 set. Both L2 sets map into this L1 set, so the pending-fill check
    // above covers them. A dirty L2 victim would go into the shared L3:
    // then the access does not run ahead.
    Cache& l2 = *l2_[core];
    if (!l2.probe(line)) return std::nullopt;
    if (const auto v1 = l1.victim_of(line); v1 && v1->dirty) {
      const auto v2 = l2.victim_of(v1->line_addr, line);
      if (v2 && v2->dirty) return std::nullopt;
    }
    cycles = 0;
    lookup_path(core, line, type, cycles);  // the L1 miss, then the L2 hit
    fill_level(l1, line, type == AccessType::kWrite, core, false);
  }
  const Tick done_at = at + Tick{cycles} * sim::kCpuTicksPerCycle;
  if (type == AccessType::kRead) add_pending_hit(done_at, cycles);
  return done_at;
}

void CacheHierarchy::allocate_miss(Addr line, CoreId core, u32 lookup_cycles,
                                   MshrFile::WakeFn waiter) {
  if (mshrs_.allocate(line, std::move(waiter)) ==
      MshrFile::Allocate::kMustFetch) {
    sim_.schedule(Tick{lookup_cycles} * sim::kCpuTicksPerCycle,
                  [this, core, line] {
                    ++memory_reads_;
                    memory_->mem_read(line, core, [this, core, line] {
                      fill_from_memory(core, line);
                    });
                  }, sim::EventSource::kCache);
  }
}

void CacheHierarchy::fill_from_memory(CoreId requesting, Addr line) {
  // Cores use disjoint address slices, so the fetching core owns the line
  // and any dirty L3 victim its fill evicts is written back on its behalf.
  fill_level(l3_, line, false, requesting, /*is_l3=*/true);
  for (auto& wake : mshrs_.complete(line)) wake();
}

void CacheHierarchy::write(CoreId core, Addr addr) {
  const Addr line = align(addr, cfg_.l3.line_bytes);
  u32 cycles = 0;
  const u32 level = lookup_path(core, line, AccessType::kWrite, cycles);
  if (level == 1) return;  // dirty bit set by access()
  if (level != 0) {
    if (level >= 3) fill_level(*l2_[core], line, false, core, false);
    fill_level(*l1_[core], line, /*dirty=*/true, core, false);
    return;
  }
  // Write-allocate: fetch the line; the store itself has already retired
  // (store buffer), so no completion callback — the line lands dirty in L1.
  ++pending_fills_[fill_slot(core, line)];
  auto waiter = [this, core, line] {
    --pending_fills_[fill_slot(core, line)];
    fill_level(*l2_[core], line, false, core, false);
    fill_level(*l1_[core], line, /*dirty=*/true, core, false);
  };
  allocate_miss(line, core, cycles, std::move(waiter));
}

}  // namespace camps::cache
