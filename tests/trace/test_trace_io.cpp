#include "trace/trace_io.hpp"


#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <string>
#include <vector>

#include "temp_path.hpp"

namespace camps::trace {
namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  std::string path_ = test_temp_path(".ctrc");
  void TearDown() override { std::remove(path_.c_str()); }
};

std::vector<TraceRecord> sample(size_t n) {
  std::vector<TraceRecord> v;
  for (size_t i = 0; i < n; ++i) {
    v.push_back({static_cast<u32>(i % 7), 0x1000 + 64 * i,
                 i % 3 == 0 ? AccessType::kWrite : AccessType::kRead});
  }
  return v;
}

TEST_F(TraceIoTest, RoundTripSmall) {
  const auto records = sample(10);
  write_trace_file(path_, records);
  EXPECT_EQ(read_trace_file(path_), records);
}

TEST_F(TraceIoTest, RoundTripEmpty) {
  write_trace_file(path_, {});
  EXPECT_TRUE(read_trace_file(path_).empty());
}

TEST_F(TraceIoTest, RoundTripLarge) {
  const auto records = sample(50000);
  write_trace_file(path_, records);
  EXPECT_EQ(read_trace_file(path_), records);
}

TEST_F(TraceIoTest, ExtremeFieldValues) {
  const std::vector<TraceRecord> records = {
      {0xFFFFFFFFu, 0xFFFFFFFFFFFFFFC0ull, AccessType::kWrite},
      {0, 0, AccessType::kRead},
  };
  write_trace_file(path_, records);
  EXPECT_EQ(read_trace_file(path_), records);
}

TEST_F(TraceIoTest, StreamingSourceMatchesBulkRead) {
  const auto records = sample(1000);
  write_trace_file(path_, records);
  TraceFileSource src(path_);
  EXPECT_EQ(src.record_count(), records.size());
  for (const auto& want : records) {
    auto got = src.next();
    ASSERT_TRUE(got);
    EXPECT_EQ(*got, want);
  }
  EXPECT_FALSE(src.next().has_value());
}

TEST_F(TraceIoTest, StreamingSourceReset) {
  write_trace_file(path_, sample(5));
  TraceFileSource src(path_);
  src.next();
  src.next();
  src.reset();
  size_t n = 0;
  while (src.next()) ++n;
  EXPECT_EQ(n, 5u);
}

TEST_F(TraceIoTest, MissingFileThrows) {
  EXPECT_THROW(read_trace_file("/nonexistent/x.ctrc"), std::runtime_error);
  EXPECT_THROW(TraceFileSource("/nonexistent/x.ctrc"), std::runtime_error);
}

TEST_F(TraceIoTest, BadMagicThrows) {
  std::ofstream(path_, std::ios::binary) << "NOTATRACEFILE___________";
  EXPECT_THROW(read_trace_file(path_), std::runtime_error);
}

TEST_F(TraceIoTest, TruncatedBodyThrows) {
  write_trace_file(path_, sample(10));
  // Chop the last record in half.
  std::ifstream in(path_, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  data.resize(data.size() - 8);
  std::ofstream(path_, std::ios::binary | std::ios::trunc) << data;
  EXPECT_THROW(read_trace_file(path_), std::runtime_error);
}

TEST_F(TraceIoTest, CorruptPadBytesThrow) {
  write_trace_file(path_, sample(2));
  std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
  // Header is 20 bytes; pad bytes of record 0 are at offset 20+5..20+7.
  f.seekp(26);
  f.put(static_cast<char>(0xAB));
  f.close();
  EXPECT_THROW(read_trace_file(path_), std::runtime_error);
}

TEST_F(TraceIoTest, CorruptTypeThrows) {
  write_trace_file(path_, sample(2));
  std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(24);  // type byte of record 0
  f.put(7);
  f.close();
  EXPECT_THROW(read_trace_file(path_), std::runtime_error);
}

TEST_F(TraceIoTest, UnsupportedVersionThrows) {
  write_trace_file(path_, sample(1));
  std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(8);  // version field
  f.put(99);
  f.close();
  EXPECT_THROW(read_trace_file(path_), std::runtime_error);
}

// --- malformed-input diagnostics -------------------------------------------

/// Runs `fn`, returning the std::runtime_error message it throws ("" if it
/// does not throw) so tests can pin the diagnostic text.
template <typename Fn>
std::string thrown_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

TEST_F(TraceIoTest, EmptyFileReportedAsEmptyNotBadMagic) {
  { std::ofstream out(path_, std::ios::binary); }
  const std::string msg = thrown_message([&] { read_trace_file(path_); });
  EXPECT_NE(msg.find("empty file"), std::string::npos) << msg;
  const std::string src_msg =
      thrown_message([&] { TraceFileSource src(path_); });
  EXPECT_NE(src_msg.find("empty file"), std::string::npos) << src_msg;
}

TEST_F(TraceIoTest, ShortHeaderReportedAsTruncatedHeader) {
  std::ofstream(path_, std::ios::binary) << "CAM";
  const std::string msg = thrown_message([&] { read_trace_file(path_); });
  EXPECT_NE(msg.find("truncated header"), std::string::npos) << msg;
}

TEST_F(TraceIoTest, TruncatedBodyNamesTheFailingRecord) {
  write_trace_file(path_, sample(10));
  std::ifstream in(path_, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  data.resize(data.size() - 8);  // chop the last record in half
  std::ofstream(path_, std::ios::binary | std::ios::trunc) << data;
  const std::string msg = thrown_message([&] { read_trace_file(path_); });
  EXPECT_NE(msg.find("record 10 of 10"), std::string::npos) << msg;
}

TEST_F(TraceIoTest, CorruptPadBytesNameTheFailingRecord) {
  write_trace_file(path_, sample(3));
  std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
  // 20-byte header + one 16-byte record; record 2's pad bytes start at
  // offset 20 + 16 + 5.
  f.seekp(41);
  f.put(static_cast<char>(0xAB));
  f.close();
  const std::string msg = thrown_message([&] { read_trace_file(path_); });
  EXPECT_NE(msg.find("pad bytes"), std::string::npos) << msg;
  EXPECT_NE(msg.find("record 2 of 3"), std::string::npos) << msg;
}

TEST_F(TraceIoTest, TrailingBytesAfterDeclaredCountThrow) {
  write_trace_file(path_, sample(3));
  std::ofstream(path_, std::ios::binary | std::ios::app) << '\x00';
  const std::string msg = thrown_message([&] { read_trace_file(path_); });
  EXPECT_NE(msg.find("trailing bytes"), std::string::npos) << msg;
}

TEST_F(TraceIoTest, StreamingSourceNamesTheFailingRecord) {
  write_trace_file(path_, sample(4));
  std::ifstream in(path_, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  data.resize(data.size() - 20);  // lose the last record and part of #3
  std::ofstream(path_, std::ios::binary | std::ios::trunc) << data;
  TraceFileSource src(path_);
  EXPECT_TRUE(src.next().has_value());
  EXPECT_TRUE(src.next().has_value());
  const std::string msg = thrown_message([&] { src.next(); });
  EXPECT_NE(msg.find("record 3 of 4"), std::string::npos) << msg;
}

TEST_F(TraceIoTest, RetiredCompactVersionIsUnsupported) {
  // Version 2, a varint-delta encoding, is no longer read or written.
  write_trace_file(path_, sample(1));
  std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(8);  // version field
  f.put(2);
  f.close();
  const std::string msg = thrown_message([&] { read_trace_file(path_); });
  EXPECT_NE(msg.find("unsupported version 2"), std::string::npos) << msg;
}

}  // namespace
}  // namespace camps::trace
