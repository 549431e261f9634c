// The benchmark's traced per-layer run (see traced.cpp).
#pragma once

#include <string>

#include "common.hpp"

namespace perfbench {

/// Runs every simulation of `wl` untraced and traced, replays the captured
/// memory stream, prints the per-layer metrics and writes the sampled span
/// trees to `out_dir`. Returns the process exit code.
int run_traced(const Workload& wl, u64 seed, const std::string& out_dir);

}  // namespace perfbench
