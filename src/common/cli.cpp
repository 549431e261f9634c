#include "common/cli.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <system_error>

namespace camps::cli {
namespace {

[[noreturn]] void bad_value(const char* argv0, const std::string& arg,
                            size_t prefix_len, const char* expects,
                            UsageFn usage) {
  std::fprintf(stderr, "%s: %.*s expects %s, got \"%s\"\n", argv0,
               static_cast<int>(prefix_len - 1), arg.c_str(), expects,
               arg.c_str() + prefix_len);
  usage(argv0);
  std::exit(2);
}

/// The whole of `arg` past the prefix parsed as T, or a fatal error.
template <typename T>
T parse_whole(const char* argv0, const std::string& arg, size_t prefix_len,
              const char* expects, UsageFn usage) {
  const char* first = arg.c_str() + prefix_len;
  const char* last = arg.c_str() + arg.size();
  T out{};
  const auto [end, ec] = std::from_chars(first, last, out);
  if (first == last || ec != std::errc{} || end != last) {
    bad_value(argv0, arg, prefix_len, expects, usage);
  }
  return out;
}

}  // namespace

u64 parse_u64(const char* argv0, const std::string& arg, size_t prefix_len,
              UsageFn usage) {
  return parse_whole<u64>(argv0, arg, prefix_len, "a number", usage);
}

u32 parse_u32(const char* argv0, const std::string& arg, size_t prefix_len,
              UsageFn usage) {
  return parse_whole<u32>(argv0, arg, prefix_len, "a 32-bit number", usage);
}

double parse_double(const char* argv0, const std::string& arg,
                    size_t prefix_len, UsageFn usage) {
  return parse_whole<double>(argv0, arg, prefix_len, "a number", usage);
}

LogLevel parse_log_level(const char* argv0, const std::string& arg,
                         size_t prefix_len, UsageFn usage) {
  const std::string value = arg.substr(prefix_len);
  if (value == "trace") return LogLevel::kTrace;
  if (value == "debug") return LogLevel::kDebug;
  if (value == "info") return LogLevel::kInfo;
  if (value == "warn") return LogLevel::kWarn;
  if (value == "error") return LogLevel::kError;
  bad_value(argv0, arg, prefix_len, "trace|debug|info|warn|error", usage);
}

}  // namespace camps::cli
