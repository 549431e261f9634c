#include "fault/fault_plan.hpp"

#include "common/assert.hpp"

namespace camps::fault {
namespace {

/// SplitMix64 finalizer: a full-avalanche mix of the decision coordinate.
u64 mix64(u64 x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from the top 53 bits of the hash.
double to_unit(u64 h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

FaultPlan::FaultPlan(const FaultConfig& config, StatRegistry& stats)
    : cfg_(config),
      c_crc_errors_(stats.counter("fault.crc_errors")),
      c_replays_(stats.counter("fault.replays")),
      c_link_drops_(stats.counter("fault.link_drops")),
      c_xbar_drops_(stats.counter("fault.xbar_drops")),
      c_vault_stalls_(stats.counter("fault.vault_stalls")),
      c_host_retries_(stats.counter("fault.host_retries")),
      c_host_poisoned_(stats.counter("fault.host_poisoned")),
      c_late_responses_(stats.counter("fault.late_responses")),
      c_degrade_flushes_(stats.counter("fault.degrade_flushes")),
      c_token_stall_ticks_(stats.counter("fault.token_stall_ticks")),
      h_recovery_(stats.histogram("fault.recovery_cycles")) {
  CAMPS_ASSERT_MSG(cfg_.link_crc_rate >= 0.0 && cfg_.link_crc_rate <= 1.0,
                   "link_crc_rate outside [0,1]");
  CAMPS_ASSERT_MSG(cfg_.link_drop_rate >= 0.0 && cfg_.link_drop_rate <= 1.0,
                   "link_drop_rate outside [0,1]");
  CAMPS_ASSERT_MSG(cfg_.xbar_drop_rate >= 0.0 && cfg_.xbar_drop_rate <= 1.0,
                   "xbar_drop_rate outside [0,1]");
  CAMPS_ASSERT_MSG(
      cfg_.vault_stall_rate >= 0.0 && cfg_.vault_stall_rate <= 1.0,
      "vault_stall_rate outside [0,1]");
}

double FaultPlan::rate_for(Site site) const {
  switch (site) {
    case Site::kLinkDownCrc:
    case Site::kLinkUpCrc:
      return cfg_.link_crc_rate;
    case Site::kLinkDownDrop:
    case Site::kLinkUpDrop:
      return cfg_.link_drop_rate;
    case Site::kXbarDrop:
      return cfg_.xbar_drop_rate;
    case Site::kVaultStall:
      return cfg_.vault_stall_rate;
  }
  return 0.0;
}

bool FaultPlan::roll(Site site, u32 unit) {
  const auto key = std::make_pair(static_cast<u8>(site), unit);
  const u64 seq = sequences_[key]++;
  for (const TargetedFault& t : cfg_.targeted) {
    if (t.site == site && t.unit == unit && t.sequence == seq) return true;
  }
  const double rate = rate_for(site);
  if (rate <= 0.0) return false;
  // Coordinate hash: seed, site, unit, and sequence each shifted into
  // disjoint-ish lanes, then avalanche-mixed. Pure function — no state
  // beyond the per-site counter advanced above.
  const u64 coord = cfg_.seed ^ (u64{static_cast<u8>(site)} << 56) ^
                    (u64{unit} << 40) ^ seq;
  return to_unit(mix64(coord)) < rate;
}

u64 FaultPlan::next_sequence(Site site, u32 unit) const {
  const auto it = sequences_.find({static_cast<u8>(site), unit});
  return it == sequences_.end() ? 0 : it->second;
}

}  // namespace camps::fault
