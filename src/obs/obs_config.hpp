// Observability configuration carried by SystemConfig / ExperimentConfig.
#pragma once

#include "common/types.hpp"

namespace camps::obs {

struct ObsConfig {
  /// Arm the per-System span recorder (--trace-out).
  bool trace_enabled = false;
  /// Ring capacity in spans (per System). 16 Ki spans ≈ 0.5 MB — bounded
  /// even across a 60-run figure sweep with every run traced.
  u32 trace_capacity = 16 * 1024;
  /// Epoch sampling interval in ticks; 0 disables the sampler. 2 M ticks ≈
  /// 83 µs of simulated time ≈ a few hundred samples on a bench-scale run.
  Tick epoch_ticks = 0;

  bool operator==(const ObsConfig&) const = default;
};

}  // namespace camps::obs
