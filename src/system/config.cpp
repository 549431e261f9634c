#include "system/config.hpp"

#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace camps::system {

trace::PatternGeometry SystemConfig::pattern_geometry() const {
  const hmc::AddressMap map(hmc.geometry, hmc.field_order);
  trace::PatternGeometry g;
  g.line_bytes = hmc.geometry.line_bytes;
  g.row_bytes = hmc.geometry.row_bytes;
  g.same_bank_row_stride = map.same_bank_row_stride();
  return g;
}

u64 SystemConfig::core_slice_bytes() const {
  return hmc.geometry.capacity_bytes() / cores;
}

SystemConfig table1_config(prefetch::SchemeKind scheme) {
  SystemConfig cfg;
  cfg.scheme = scheme;
  return cfg;  // every member default already encodes Table I
}

SystemConfig hmc_gen1_config(prefetch::SchemeKind scheme) {
  SystemConfig cfg = table1_config(scheme);
  cfg.hmc.geometry.vaults = 16;
  cfg.hmc.geometry.banks_per_vault = 8;
  cfg.hmc.geometry.rows_per_bank = 16384;  // 2 GB cube
  cfg.hmc.link.gbps_per_lane = 10.0;
  return cfg;
}

SystemConfig apply_overrides(SystemConfig base, const ConfigFile& cfg) {
  // Each read names its key once and the known-key list is built from the
  // reads: a key nothing reads is a typo (or a stale experiment file) and
  // must fail loudly, not silently default. So must an integer that does
  // not fit its field, rather than wrap.
  std::vector<std::string> known;
  auto read = [&](const char* key, auto& field) {
    using T = std::remove_reference_t<decltype(field)>;
    known.emplace_back(key);
    if (!cfg.has(key)) return false;
    if constexpr (std::is_same_v<T, std::string>) {
      field = cfg.get_string(key);
    } else if constexpr (std::is_floating_point_v<T>) {
      field = cfg.get_double(key);
    } else {
      static_assert(std::is_unsigned_v<T>);
      const u64 value = cfg.get_uint(key);
      if (value > std::numeric_limits<T>::max()) {
        throw std::runtime_error("config key '" + std::string(key) + "' = " +
                                 std::to_string(value) +
                                 " does not fit its field");
      }
      field = static_cast<T>(value);
    }
    return true;
  };
  read("cores", base.cores);
  read("seed", base.seed);
  read("max_cycles", base.max_cycles);
  read("audit_every", base.audit_every);

  read("core.issue_width", base.core.issue_width);
  read("core.max_outstanding", base.core.max_outstanding_loads);
  read("core.warmup", base.core.warmup_instructions);
  read("core.measure", base.core.measure_instructions);

  read("hmc.vaults", base.hmc.geometry.vaults);
  read("hmc.banks", base.hmc.geometry.banks_per_vault);
  read("hmc.links", base.hmc.num_links);
  read("hmc.rows_per_bank", base.hmc.geometry.rows_per_bank);

  read("buffer.entries", base.hmc.vault.buffer.entries);
  read("buffer.hit_latency", base.hmc.vault.buffer.hit_latency);

  read("camps.threshold", base.scheme_params.camps.utilization_threshold);
  read("camps.conflict_entries", base.scheme_params.camps.conflict_entries);
  read("mmd.max_degree", base.scheme_params.mmd.max_degree);

  std::string scheme;
  if (read("scheme", scheme)) {
    base.scheme = prefetch::scheme_from_string(scheme);
  }

  fault::FaultConfig& f = base.hmc.fault;
  read("fault.link_crc_rate", f.link_crc_rate);
  read("fault.link_drop_rate", f.link_drop_rate);
  read("fault.xbar_drop_rate", f.xbar_drop_rate);
  read("fault.vault_stall_rate", f.vault_stall_rate);
  read("fault.vault_stall_ticks", f.vault_stall_ticks);
  read("fault.host_timeout_ticks", f.host_timeout_ticks);
  read("fault.host_backoff_ticks", f.host_backoff_ticks);
  read("fault.retry_budget", f.host_retry_budget);
  read("fault.degrade_threshold", f.vault_degrade_threshold);
  read("fault.link_tokens", f.link_tokens);
  read("fault.seed", f.seed);
  cfg.require_known(known);
  return base;
}

}  // namespace camps::system
