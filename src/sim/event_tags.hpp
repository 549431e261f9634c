// Tags a component attaches when it schedules an event.
//
// EventSource names the layer that scheduled an event. The simulator counts
// executed events per source (RunResults::events_by_source), which is how a
// change to one layer's event traffic shows up in the exported results.
//
// Late units order a tick's late phase (EventQueue::schedule_late). Every
// component that schedules late events owns one range here, so two ranges
// can never collide, and the ranges fix the same-tick order:
//
//   1. ordinary events, in scheduling order;
//   2. vault wakes, in vault-id order;
//   3. core steps, in core-id order.
//
// Core steps run last because a step is the only late event that opens or
// closes the measurement window: running it after the tick's vault wakes
// means a window boundary at tick t falls after all of t's memory-side work,
// whichever core crosses it.
#pragma once

#include <array>
#include <cstddef>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace camps::sim {

/// The layer that scheduled an event.
enum class EventSource : u8 {
  kCore,   ///< Core steps.
  kCache,  ///< Cache miss launches (hits schedule no event).
  kHost,   ///< Host controller timers and retry back-offs.
  kLink,   ///< Read responses reaching the host (arrivals are free).
  kVault,  ///< Vault wakes, bank completions, prefetch fills, responses.
  kEpoch,  ///< Epoch sampler ticks.
  kOther,  ///< Untagged (tests, tools, harnesses).
};

inline constexpr size_t kEventSources = 7;

/// Executed-event counts, indexed by EventSource.
using EventCounts = std::array<u64, kEventSources>;

/// JSON/report names, indexed by EventSource.
inline constexpr std::array<const char*, kEventSources> kEventSourceNames = {
    "core", "cache", "host", "link", "vault", "epoch", "other"};

/// Late-phase unit numbering (see the order above).
namespace late_unit {

inline constexpr u32 kVaults = u32{1} << 16;  ///< Units [0, kVaults).
inline constexpr u32 kCores = u32{1} << 16;   ///< Units [kVaults, +kCores).

inline u32 vault(VaultId vault) {
  CAMPS_ASSERT(vault < kVaults);
  return vault;
}

inline u32 core(CoreId core) {
  CAMPS_ASSERT(core < kCores);
  return kVaults + core;
}

}  // namespace late_unit
}  // namespace camps::sim
