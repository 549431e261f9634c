// Whole-system configuration (Table I) and config-file overrides.
#pragma once

#include "cache/hierarchy.hpp"
#include "common/config_file.hpp"
#include "cpu/core.hpp"
#include "hmc/hmc_device.hpp"
#include "obs/obs_config.hpp"
#include "prefetch/factory.hpp"
#include "trace/patterns.hpp"

namespace camps::system {

struct SystemConfig {
  u32 cores = 8;
  cpu::CoreConfig core;              ///< 4-wide, 8 outstanding loads.
  cache::HierarchyConfig caches;     ///< 32K/256K/16M per Table I.
  hmc::HmcConfig hmc;                ///< 32 vaults, 16 banks, DDR3-1600.
  prefetch::SchemeKind scheme = prefetch::SchemeKind::kCampsMod;
  prefetch::SchemeParams scheme_params;
  u64 seed = 1;                      ///< Workload generation seed.
  obs::ObsConfig obs;                ///< Tracing / epoch-sampling knobs.
  /// Hard wall-clock bound for one run, in simulated CPU cycles; a run
  /// that hasn't finished its measurement window by then stops and reports
  /// partial=true (prevents hangs on mis-tuned configurations).
  u64 max_cycles = 400'000'000;
  /// Model self-audit interval: every N executed events the whole system
  /// (event queue, banks, RUT/CT, prefetch buffers, MSHRs, queues) is
  /// checked against its invariants, and so is each vault at the wake that
  /// begins a refresh drain; the run aborts with a state dump on any
  /// violation. 0 disables auditing (the default; audits cost time).
  u64 audit_every = 0;

  /// Pattern geometry consistent with the HMC address map, for workload
  /// construction.
  trace::PatternGeometry pattern_geometry() const;

  /// Per-core physical address slice in bytes (cube capacity / cores).
  u64 core_slice_bytes() const;

  bool operator==(const SystemConfig&) const = default;
};

/// Table I defaults with the given scheme.
SystemConfig table1_config(
    prefetch::SchemeKind scheme = prefetch::SchemeKind::kCampsMod);

/// First-generation HMC (HMC 1.0-era): 16 vaults x 8 banks, 4 x 10 Gbps
/// links, 2 GB cube. Useful for studying how CAMPS's benefit scales with
/// vault-level parallelism (extension; the paper models gen2).
SystemConfig hmc_gen1_config(
    prefetch::SchemeKind scheme = prefetch::SchemeKind::kCampsMod);

/// Applies `key = value` overrides. Every key is optional; the reads in
/// apply_overrides are the one list of accepted keys, and
/// configs/table1.ini shows each at its default. Throws
/// std::runtime_error for malformed values, for integers that do not fit
/// their field, and for unrecognized keys (with a did-you-mean suggestion
/// for near misses).
SystemConfig apply_overrides(SystemConfig base, const ConfigFile& cfg);

}  // namespace camps::system
