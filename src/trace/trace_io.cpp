#include "trace/trace_io.hpp"

#include <array>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace camps::trace {
namespace {

constexpr char kMagic[8] = {'C', 'A', 'M', 'P', 'S', 'T', 'R', 'C'};
constexpr u32 kVersion = 1;

void put_u32(std::ostream& out, u32 v) {
  std::array<char, 4> b;
  for (int i = 0; i < 4; ++i) b[static_cast<size_t>(i)] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out.write(b.data(), 4);
}

void put_u64(std::ostream& out, u64 v) {
  std::array<char, 8> b;
  for (int i = 0; i < 8; ++i) b[static_cast<size_t>(i)] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out.write(b.data(), 8);
}

u32 get_u32(std::istream& in) {
  std::array<unsigned char, 4> b;
  in.read(reinterpret_cast<char*>(b.data()), 4);
  // Checked before decoding: a short read leaves the array uninitialized.
  if (!in) throw std::runtime_error("trace file: unexpected end of file");
  u32 v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | b[static_cast<size_t>(i)];
  return v;
}

u64 get_u64(std::istream& in) {
  std::array<unsigned char, 8> b;
  in.read(reinterpret_cast<char*>(b.data()), 8);
  if (!in) throw std::runtime_error("trace file: unexpected end of file");
  u64 v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | b[static_cast<size_t>(i)];
  return v;
}

void write_record(std::ostream& out, const TraceRecord& r) {
  put_u32(out, r.gap);
  const char type = r.type == AccessType::kWrite ? 1 : 0;
  out.put(type);
  out.put(0);
  out.put(0);
  out.put(0);
  put_u64(out, r.addr);
}

TraceRecord read_record_fields(std::istream& in) {
  TraceRecord r;
  r.gap = get_u32(in);
  std::array<char, 4> tp;
  in.read(tp.data(), 4);
  if (!in) throw std::runtime_error("trace file: unexpected end of file");
  if (tp[1] != 0 || tp[2] != 0 || tp[3] != 0) {
    throw std::runtime_error("trace file: nonzero pad bytes (corrupt record)");
  }
  if (tp[0] != 0 && tp[0] != 1) {
    throw std::runtime_error("trace file: invalid access type");
  }
  r.type = tp[0] == 1 ? AccessType::kWrite : AccessType::kRead;
  r.addr = get_u64(in);
  return r;
}

void write_header(std::ostream& out, u64 count) {
  out.write(kMagic, 8);
  put_u32(out, kVersion);
  put_u64(out, count);
}

/// Checks the magic and version; returns the record count.
u64 read_header(std::istream& in) {
  char magic[8];
  in.read(magic, 8);
  if (in.gcount() == 0) {
    throw std::runtime_error("trace file: empty file (no header)");
  }
  if (in.gcount() < 8) {
    throw std::runtime_error("trace file: truncated header");
  }
  if (std::memcmp(magic, kMagic, 8) != 0) {
    throw std::runtime_error("trace file: bad magic");
  }
  const u32 version = get_u32(in);
  if (version != kVersion) {
    throw std::runtime_error("trace file: unsupported version " +
                             std::to_string(version));
  }
  return get_u64(in);
}

/// Reads record `index` (0-based) of `total`, rethrowing any decode error
/// with the record's position so a corrupt file points at itself.
TraceRecord read_record(std::istream& in, u64 index, u64 total) {
  try {
    return read_record_fields(in);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string(e.what()) + " (record " +
                             std::to_string(index + 1) + " of " +
                             std::to_string(total) + ")");
  }
}

}  // namespace

void write_trace_file(const std::string& path,
                      const std::vector<TraceRecord>& records) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot create trace file: " + path);
  write_header(out, records.size());
  for (const auto& r : records) write_record(out, r);
  out.flush();
  if (!out) throw std::runtime_error("write failure on trace file: " + path);
}

std::vector<TraceRecord> read_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  const u64 count = read_header(in);
  std::vector<TraceRecord> records;
  records.reserve(count);
  for (u64 i = 0; i < count; ++i) records.push_back(read_record(in, i, count));
  // The header's count must describe the file exactly: trailing bytes mean
  // the writer and header disagree (or the file was concatenated/corrupt).
  if (in.peek() != std::char_traits<char>::eof()) {
    throw std::runtime_error(
        "trace file: trailing bytes after the " + std::to_string(count) +
        " records declared in the header");
  }
  return records;
}

struct TraceFileSource::Impl {
  std::ifstream in;
  u64 remaining = 0;
};

TraceFileSource::TraceFileSource(const std::string& path)
    : impl_(std::make_unique<Impl>()) {
  impl_->in.open(path, std::ios::binary);
  if (!impl_->in) throw std::runtime_error("cannot open trace file: " + path);
  count_ = read_header(impl_->in);
  impl_->remaining = count_;
}

TraceFileSource::~TraceFileSource() = default;

std::optional<TraceRecord> TraceFileSource::next() {
  if (impl_->remaining == 0) return std::nullopt;
  TraceRecord r =
      read_record(impl_->in, count_ - impl_->remaining, count_);
  --impl_->remaining;
  return r;
}

void TraceFileSource::reset() {
  impl_->in.clear();
  impl_->in.seekg(0, std::ios::beg);
  impl_->remaining = read_header(impl_->in);
}

}  // namespace camps::trace
