#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "trace/trace.h"
#include "trace/trace_io.h"

namespace ulc {
namespace {

Trace sample_trace() {
  Trace t("sample");
  t.add(10, 0);
  t.add(20, 1);
  t.add(10, 1);
  t.add(30, 0);
  t.add(20, 0);
  return t;
}

TEST(Trace, BasicAccessors) {
  const Trace t = sample_trace();
  EXPECT_EQ(t.size(), 5u);
  EXPECT_EQ(t[0].block, 10u);
  EXPECT_EQ(t[1].client, 1u);
  EXPECT_FALSE(t.empty());
}

TEST(Trace, FilterClient) {
  const Trace t = sample_trace();
  const Trace c1 = t.filter_client(1);
  ASSERT_EQ(c1.size(), 2u);
  EXPECT_EQ(c1[0].block, 20u);
  EXPECT_EQ(c1[1].block, 10u);
  EXPECT_EQ(c1[0].client, 0u);  // renumbered
}

TEST(Trace, FilterClientPreservesOps) {
  Trace t("ops");
  t.add(1, 0, Op::kWrite);
  t.add(2, 1, Op::kWrite);
  t.add(3, 1, Op::kRead);
  const Trace c1 = t.filter_client(1);
  ASSERT_EQ(c1.size(), 2u);
  EXPECT_EQ(c1[0].op, Op::kWrite);
  EXPECT_EQ(c1[1].op, Op::kRead);
}

TEST(Trace, Prefix) {
  const Trace t = sample_trace();
  EXPECT_EQ(t.prefix(3).size(), 3u);
  EXPECT_EQ(t.prefix(99).size(), 5u);
  EXPECT_EQ(t.prefix(0).size(), 0u);
}

TEST(TraceStats, CountsUniqueSharedAndClients) {
  const TraceStats s = compute_stats(sample_trace());
  EXPECT_EQ(s.references, 5u);
  EXPECT_EQ(s.unique_blocks, 3u);
  EXPECT_EQ(s.clients, 2u);
  EXPECT_EQ(s.max_block, 30u);
  EXPECT_EQ(s.shared_blocks, 2u);  // 10 and 20 touched by both clients
}

// Writes `magic`, a little-endian record count, then `body_bytes` bytes of
// 0x01 (every field nonzero, so any whole v1/v2/v3 record parses): the shape
// of a ULCTRC file whose header may lie about its body.
void write_binary(const std::string& path, const char* magic,
                  std::uint64_t count, std::size_t body_bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(magic, 1, 8, f);
  for (int i = 0; i < 8; ++i)
    std::fputc(static_cast<int>((count >> (8 * i)) & 0xff), f);
  const std::vector<char> body(body_bytes, 1);
  if (!body.empty()) std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
}

class TraceIoTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (!path_.empty()) std::remove(path_.c_str());
  }
  std::string path_;
};

TEST_F(TraceIoTest, TextRoundTrip) {
  path_ = ::testing::TempDir() + "/ulc_trace_test.txt";
  const Trace t = sample_trace();
  std::string err;
  ASSERT_TRUE(save_trace_text(t, path_, &err)) << err;
  auto loaded = load_trace_text(path_, &err);
  ASSERT_TRUE(loaded.has_value()) << err;
  ASSERT_EQ(loaded->size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ((*loaded)[i], t[i]);
}

TEST_F(TraceIoTest, BinaryRoundTrip) {
  path_ = ::testing::TempDir() + "/ulc_trace_test.bin";
  Trace t("big");
  for (std::uint64_t i = 0; i < 10000; ++i)
    t.add(i * 2654435761u % 100000, static_cast<ClientId>(i % 7));
  std::string err;
  ASSERT_TRUE(save_trace_binary(t, path_, &err)) << err;
  auto loaded = load_trace_binary(path_, &err);
  ASSERT_TRUE(loaded.has_value()) << err;
  ASSERT_EQ(loaded->size(), t.size());
  for (std::size_t i = 0; i < t.size(); i += 997) EXPECT_EQ((*loaded)[i], t[i]);
}

TEST_F(TraceIoTest, LoadMissingFileFails) {
  std::string err;
  EXPECT_FALSE(load_trace_text("/nonexistent/ulc", &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(load_trace_binary("/nonexistent/ulc", &err).has_value());
}

TEST_F(TraceIoTest, MalformedTextFails) {
  path_ = ::testing::TempDir() + "/ulc_trace_bad.txt";
  std::FILE* f = std::fopen(path_.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("# comment\n1 2\nnot a line\n", f);
  std::fclose(f);
  std::string err;
  EXPECT_FALSE(load_trace_text(path_, &err).has_value());
  EXPECT_NE(err.find("malformed"), std::string::npos);
}

TEST_F(TraceIoTest, BinaryRejectsWrongMagic) {
  path_ = ::testing::TempDir() + "/ulc_trace_magic.bin";
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("NOTATRACEFILE!!!", f);
  std::fclose(f);
  std::string err;
  EXPECT_FALSE(load_trace_binary(path_, &err).has_value());
  // A near-miss magic over a body whose count and length are consistent
  // for v3.
  write_binary(path_, "ULCTRC09", 1, 17);
  EXPECT_FALSE(load_trace_binary(path_, &err).has_value());
  EXPECT_NE(err.find("not a ULC binary trace"), std::string::npos) << err;
}

TEST_F(TraceIoTest, BinaryRejectsHugeHeaderCounts) {
  // A bare 16-byte header claiming 2^60 (length_error) or 2^33 (bad_alloc)
  // records must fail with a message, not abort in reserve().
  path_ = ::testing::TempDir() + "/ulc_trace_huge.bin";
  for (const std::uint64_t count :
       {std::uint64_t{1} << 60, std::uint64_t{1} << 33}) {
    write_binary(path_, "ULCTRC03", count, 0);
    std::string err;
    EXPECT_FALSE(load_trace_binary(path_, &err).has_value()) << count;
    EXPECT_NE(err.find("claims"), std::string::npos) << err;
  }
}

TEST_F(TraceIoTest, BinaryRejectsCountOneBeyondTheBody) {
  // Per format version: a body of exactly three records loads; the same
  // body under a header claiming four is rejected.
  path_ = ::testing::TempDir() + "/ulc_trace_short.bin";
  const std::pair<const char*, std::size_t> formats[] = {
      {"ULCTRC01", 12}, {"ULCTRC02", 13}, {"ULCTRC03", 17}};
  for (const auto& [magic, record] : formats) {
    SCOPED_TRACE(magic);
    std::string err;
    write_binary(path_, magic, 3, 3 * record);
    const auto loaded = load_trace_binary(path_, &err);
    ASSERT_TRUE(loaded.has_value()) << err;
    EXPECT_EQ(loaded->size(), 3u);
    write_binary(path_, magic, 4, 3 * record);
    EXPECT_FALSE(load_trace_binary(path_, &err).has_value());
    EXPECT_NE(err.find("claims"), std::string::npos) << err;
  }
}

TEST_F(TraceIoTest, BinaryRejectsZeroLengthFile) {
  path_ = ::testing::TempDir() + "/ulc_trace_empty.bin";
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::string err;
  EXPECT_FALSE(load_trace_binary(path_, &err).has_value());
  EXPECT_NE(err.find("not a ULC binary trace"), std::string::npos) << err;
}

}  // namespace
}  // namespace ulc
