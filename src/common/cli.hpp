// Strict `--flag=VALUE` parsing shared by the bench binaries and camps_sim.
//
// A malformed value is fatal: `--measure=abc` quietly becoming 0 would run
// a 0-instruction window and exit 0, which is exactly what fatal
// unknown-flag handling exists to stop. Each parser prints
// "<argv0>: <flag> expects ..., got "<value>"", then the caller's usage,
// and exits with status 2.
#pragma once

#include <string>

#include "common/log.hpp"
#include "common/types.hpp"

namespace camps::cli {

/// Prints a binary's usage text to stderr.
using UsageFn = void (*)(const char* argv0);

/// Decimal value of `arg` past its `prefix_len`-character "--flag=" prefix:
/// the whole value must be digits (no sign, no blanks) and fit in a u64.
u64 parse_u64(const char* argv0, const std::string& arg, size_t prefix_len,
              UsageFn usage);

/// Like parse_u64 for a u32 field: a value that does not fit is fatal.
u32 parse_u32(const char* argv0, const std::string& arg, size_t prefix_len,
              UsageFn usage);

/// Like parse_u64 for a decimal or exponent-form real ("0.001", "1e-4").
double parse_double(const char* argv0, const std::string& arg,
                    size_t prefix_len, UsageFn usage);

/// trace|debug|info|warn|error, the value of `arg` past its prefix.
LogLevel parse_log_level(const char* argv0, const std::string& arg,
                         size_t prefix_len, UsageFn usage);

}  // namespace camps::cli
