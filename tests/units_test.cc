#include "common/units.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>

namespace mrmb {
namespace {

TEST(UnitsTest, ToSecondsRoundTrip) {
  EXPECT_DOUBLE_EQ(ToSeconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(ToSeconds(kMillisecond), 1e-3);
  EXPECT_DOUBLE_EQ(ToSeconds(kMicrosecond), 1e-6);
  EXPECT_EQ(FromSeconds(1.0), kSecond);
  EXPECT_EQ(FromSeconds(0.001), kMillisecond);
  EXPECT_EQ(FromSeconds(ToSeconds(123456789)), 123456789);
}

TEST(UnitsTest, FromSecondsRounds) {
  EXPECT_EQ(FromSeconds(1.5e-9), 2);
  EXPECT_EQ(FromSeconds(0.4e-9), 0);
}

struct ByteCase {
  const char* text;
  int64_t expected;
};

// Print the spelling rather than the struct's raw bytes: the raw bytes hold
// the string literal's address, which changes from run to run, and gtest and
// CTest build the case names from this output.
void PrintTo(const ByteCase& c, std::ostream* os) {
  *os << '"' << c.text << '"';
}

class ParseBytesTest : public ::testing::TestWithParam<ByteCase> {};

TEST_P(ParseBytesTest, Parses) {
  auto result = ParseBytes(GetParam().text);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Spellings, ParseBytesTest,
    ::testing::Values(ByteCase{"0", 0}, ByteCase{"512", 512},
                      ByteCase{"512B", 512}, ByteCase{"1KB", 1024},
                      ByteCase{"1kb", 1024}, ByteCase{"1KiB", 1024},
                      ByteCase{"4K", 4096}, ByteCase{"1MB", 1024 * 1024},
                      ByteCase{"16MB", 16LL * 1024 * 1024},
                      ByteCase{"8GB", 8LL << 30}, ByteCase{"1TB", 1LL << 40},
                      ByteCase{"1.5KB", 1536}, ByteCase{"0.5GB", 1LL << 29},
                      ByteCase{" 2 MB ", 2 * 1024 * 1024}));

TEST(ParseBytesErrorTest, RejectsJunk) {
  for (const char* junk :
       {"", "abc", "12XB", "--3", "1 2", "1KBs", "KB", "1..2KB"}) {
    EXPECT_FALSE(ParseBytes(junk).ok()) << junk;
  }
}

TEST(ParseBytesErrorTest, RejectsNegative) {
  EXPECT_FALSE(ParseBytes("-1KB").ok());
}

struct DurationCase {
  const char* text;
  SimTime expected;
};

void PrintTo(const DurationCase& c, std::ostream* os) {
  *os << '"' << c.text << '"';
}

class ParseDurationTest : public ::testing::TestWithParam<DurationCase> {};

TEST_P(ParseDurationTest, Parses) {
  auto result = ParseDuration(GetParam().text);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Spellings, ParseDurationTest,
    ::testing::Values(DurationCase{"1", kSecond}, DurationCase{"1s", kSecond},
                      DurationCase{"2.5s", 2 * kSecond + 500 * kMillisecond},
                      DurationCase{"5ms", 5 * kMillisecond},
                      DurationCase{"100us", 100 * kMicrosecond},
                      DurationCase{"250ns", 250},
                      DurationCase{"1min", 60 * kSecond},
                      DurationCase{"0", 0}));

TEST(ParseDurationErrorTest, RejectsJunk) {
  for (const char* junk : {"", "fast", "1h", "3 4s", "-5s"}) {
    EXPECT_FALSE(ParseDuration(junk).ok()) << junk;
  }
}

TEST(FormatBytesTest, PicksUnits) {
  EXPECT_EQ(FormatBytes(0), "0 B");
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(1024), "1.00 KB");
  EXPECT_EQ(FormatBytes(1536), "1.50 KB");
  EXPECT_EQ(FormatBytes(16LL * 1024 * 1024), "16.00 MB");
  EXPECT_EQ(FormatBytes(8LL << 30), "8.00 GB");
}

TEST(FormatDurationTest, PicksUnits) {
  EXPECT_EQ(FormatDuration(0), "0 ns");
  EXPECT_EQ(FormatDuration(250), "250 ns");
  EXPECT_EQ(FormatDuration(5 * kMicrosecond), "5.000 us");
  EXPECT_EQ(FormatDuration(3 * kMillisecond), "3.000 ms");
  EXPECT_EQ(FormatDuration(2 * kSecond), "2.000 s");
  EXPECT_EQ(FormatDuration(kSecond + kSecond / 2), "1.500 s");
}

TEST(FormatParseRoundTrip, BytesSurviveFormatting) {
  for (int64_t v : {int64_t{1024}, int64_t{16} << 20, int64_t{8} << 30}) {
    auto parsed = ParseBytes(FormatBytes(v));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, v);
  }
}

}  // namespace
}  // namespace mrmb
