// Binary trace file format (".ctrc").
//
// Version 1 (fixed-width), layout (little-endian):
//   8 bytes  magic "CAMPSTRC"
//   4 bytes  format version (1)
//   8 bytes  record count
//   records: { u32 gap, u8 type, 3 pad bytes, u64 addr } x count
//
// The fixed 16-byte record keeps readers trivially seekable; pad bytes must
// be zero and are verified on read so corrupt files fail fast. Any other
// version is rejected.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace camps::trace {

/// Writes `records` to `path` in version 1 (fixed-width). Throws
/// std::runtime_error on I/O failure.
void write_trace_file(const std::string& path,
                      const std::vector<TraceRecord>& records);

/// Reads a whole trace file. Throws std::runtime_error on I/O failure,
/// bad magic, unsupported version, or a truncated/corrupt body.
std::vector<TraceRecord> read_trace_file(const std::string& path);

/// Streaming reader for large files; yields records without loading the
/// whole file.
class TraceFileSource final : public TraceSource {
 public:
  explicit TraceFileSource(const std::string& path);
  ~TraceFileSource() override;
  TraceFileSource(const TraceFileSource&) = delete;
  TraceFileSource& operator=(const TraceFileSource&) = delete;

  std::optional<TraceRecord> next() override;
  void reset() override;

  u64 record_count() const { return count_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  u64 count_ = 0;
};

}  // namespace camps::trace
