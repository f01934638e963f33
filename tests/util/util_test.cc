// Tests for Status/Result, CRC32, the string interner, and file IO.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <random>
#include <vector>

#include "util/crc32.h"
#include "util/interner.h"
#include "util/io.h"
#include "util/result.h"
#include "util/status.h"

namespace verso {
namespace {

// ---- Status / Result -----------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status s = Status::NotStratifiable("rule7 vs rule9");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotStratifiable);
  EXPECT_EQ(s.ToString(), "NotStratifiable: rule7 vs rule9");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kParseError,
        StatusCode::kUnsafeRule, StatusCode::kNotStratifiable,
        StatusCode::kNotVersionLinear, StatusCode::kDivergence,
        StatusCode::kIoError, StatusCode::kCorruption, StatusCode::kNotFound,
        StatusCode::kInternal}) {
    EXPECT_FALSE(StatusCodeName(code).empty());
    EXPECT_NE(StatusCodeName(code), "Unknown");
  }
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

Result<int> Doubled(int v) {
  VERSO_ASSIGN_OR_RETURN(int value, ParsePositive(v));
  return value * 2;
}

TEST(ResultTest, ValueAndStatusPaths) {
  Result<int> good = Doubled(21);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  Result<int> bad = Doubled(-1);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.value_or(7), 7);
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(9));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 9);
}

// ---- CRC32 ----------------------------------------------------------------

TEST(Crc32Test, KnownVectors) {
  // Standard IEEE CRC-32 check value for "123456789".
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  EXPECT_EQ(Crc32("a", 1), 0xE8B7BE43u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const char* data = "the quick brown fox jumps over the lazy dog";
  size_t len = 43;
  uint32_t whole = Crc32(data, len);
  uint32_t split = Crc32Extend(Crc32(data, 10), data + 10, len - 10);
  EXPECT_EQ(whole, split);
}

/// A bytewise CRC-32 straight from the polynomial: the reference the
/// table-driven implementation must match bit for bit.
uint32_t BytewiseCrc32(const unsigned char* data, size_t length) {
  uint32_t c = 0xffffffffu;
  for (size_t i = 0; i < length; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xffffffffu;
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthOffsetAndSplit) {
  // Lengths 0-256 at start offsets 0-7 cover every tail length and every
  // alignment of the eight-byte steps; splitting at every offset checks
  // that Crc32Extend resumes from any point.
  std::mt19937 rng(20261019);
  std::vector<unsigned char> buffer(256 + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (unsigned char& byte : buffer) {
      byte = static_cast<unsigned char>(rng() & 0xffu);
    }
    for (size_t length = 0; length <= 256; ++length) {
      const unsigned char* data = buffer.data() + offset;
      const uint32_t expected = BytewiseCrc32(data, length);
      ASSERT_EQ(Crc32(data, length), expected)
          << "offset " << offset << " length " << length;
      for (size_t split = 0; split <= length; ++split) {
        ASSERT_EQ(Crc32Extend(Crc32(data, split), data + split, length - split),
                  expected)
            << "offset " << offset << " length " << length << " split "
            << split;
      }
    }
  }
}

TEST(Crc32Test, DetectsBitFlip) {
  std::string payload = "versioned object base";
  uint32_t before = Crc32(payload.data(), payload.size());
  payload[5] ^= 0x01;
  EXPECT_NE(before, Crc32(payload.data(), payload.size()));
}

// ---- StringInterner --------------------------------------------------------

TEST(InternerTest, DenseStableIds) {
  StringInterner interner;
  uint32_t a = interner.Intern("alpha");
  uint32_t b = interner.Intern("beta");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(interner.Intern("alpha"), a);
  EXPECT_EQ(interner.Get(a), "alpha");
  EXPECT_EQ(interner.size(), 2u);
}

TEST(InternerTest, FindWithoutInterning) {
  StringInterner interner;
  interner.Intern("x");
  EXPECT_EQ(interner.Find("x"), 0u);
  EXPECT_EQ(interner.Find("y"), StringInterner::kNotFound);
  EXPECT_EQ(interner.size(), 1u);
}

// ---- IO --------------------------------------------------------------------

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-case directory: ctest runs each case as its own process, so a
    // shared path races one case's remove_all against another's writes.
    dir_ = ::testing::TempDir() + "/verso_io_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(EnsureDirectory(dir_).ok());
  }
  std::string dir_;
};

TEST_F(IoTest, WriteReadRoundTrip) {
  std::string path = dir_ + "/file.bin";
  std::string payload = "binary\0data", expect(payload);
  ASSERT_TRUE(WriteFile(path, payload).ok());
  Result<std::string> back = ReadFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, expect);
}

TEST_F(IoTest, ReadMissingFileIsIoError) {
  Result<std::string> r = ReadFile(dir_ + "/nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST_F(IoTest, AtomicWriteLeavesNoTemp) {
  std::string path = dir_ + "/atomic.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "v1").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "v2").ok());
  EXPECT_EQ(*ReadFile(path), "v2");
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST_F(IoTest, AppendAccumulates) {
  std::string path = dir_ + "/log";
  ASSERT_TRUE(AppendFile(path, "a").ok());
  ASSERT_TRUE(AppendFile(path, "bc").ok());
  EXPECT_EQ(*ReadFile(path), "abc");
}

TEST_F(IoTest, ReadFileReturnsEmptyAndLargeFilesWhole) {
  std::string empty = dir_ + "/empty";
  ASSERT_TRUE(WriteFile(empty, "").ok());
  Result<std::string> none = ReadFile(empty);
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_EQ(*none, "");

  // Over 1 MiB, every byte value, and no zero-length tail.
  std::string big((1u << 20) + 12345, '\0');
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>((i * 131 + i / 7) & 0xff);
  }
  std::string path = dir_ + "/big";
  ASSERT_TRUE(WriteFile(path, big).ok());
  Result<std::string> read = ReadFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->size(), big.size());
  EXPECT_TRUE(*read == big);
  EXPECT_TRUE(RemoveFile(path).ok());

  EXPECT_EQ(ReadFile(dir_ + "/missing").status().code(),
            StatusCode::kIoError);
  // A directory opens but cannot be read.
  EXPECT_EQ(ReadFile(dir_).status().code(), StatusCode::kIoError);
}

TEST_F(IoTest, SyncsReachTheRealFilesystem) {
  Env* env = Env::Default();
  std::string path = dir_ + "/synced";
  ASSERT_TRUE(WriteFile(path, "x").ok());
  EXPECT_TRUE(env->SyncFile(path).ok());
  EXPECT_TRUE(env->SyncDir(dir_).ok());
  EXPECT_EQ(env->SyncFile(dir_ + "/missing").code(), StatusCode::kIoError);
  EXPECT_EQ(env->SyncDir(dir_ + "/missing").code(), StatusCode::kIoError);
}

TEST(DirNameTest, NamesTheDirectoryHoldingAPath) {
  EXPECT_EQ(DirName("/db/store.img"), "/db");
  EXPECT_EQ(DirName("a/b/c"), "a/b");
  EXPECT_EQ(DirName("/f"), "/");
  EXPECT_EQ(DirName("f"), ".");
}

TEST_F(IoTest, RemoveIsIdempotent) {
  std::string path = dir_ + "/gone";
  ASSERT_TRUE(WriteFile(path, "x").ok());
  EXPECT_TRUE(RemoveFile(path).ok());
  EXPECT_TRUE(RemoveFile(path).ok());  // missing file is fine
  EXPECT_FALSE(FileExists(path));
}

}  // namespace
}  // namespace verso
