#include "common/string_util.h"

#include <climits>
#include <cstdint>

#include <gtest/gtest.h>

namespace groupsa {
namespace {

TEST(StrFormatTest, BasicFormatting) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
}

TEST(StrFormatTest, FloatPrecision) {
  EXPECT_EQ(StrFormat("%.3f", 1.23456), "1.235");
}

TEST(StrFormatTest, EmptyResult) { EXPECT_EQ(StrFormat("%s", ""), ""); }

TEST(StrFormatTest, LongString) {
  const std::string big(5000, 'a');
  EXPECT_EQ(StrFormat("%s", big.c_str()).size(), 5000u);
}

TEST(StrJoinTest, JoinsWithSeparator) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StrJoinTest, SingleElement) { EXPECT_EQ(StrJoin({"a"}, ","), "a"); }

TEST(StrJoinTest, Empty) { EXPECT_EQ(StrJoin({}, ","), ""); }

TEST(StrSplitTest, BasicSplit) {
  const auto parts = StrSplit("a\tb\tc", '\t');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StrSplitTest, KeepsEmptyFields) {
  const auto parts = StrSplit("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StrSplitTest, NoDelimiter) {
  const auto parts = StrSplit("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StrSplitTest, TrailingDelimiter) {
  const auto parts = StrSplit("a,", ',');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[1], "");
}

TEST(StrTrimTest, TrimsBothEnds) {
  EXPECT_EQ(StrTrim("  hello \t\n"), "hello");
}

TEST(StrTrimTest, NoWhitespace) { EXPECT_EQ(StrTrim("abc"), "abc"); }

TEST(StrTrimTest, AllWhitespace) { EXPECT_EQ(StrTrim(" \t "), ""); }

TEST(StrTrimTest, InternalWhitespacePreserved) {
  EXPECT_EQ(StrTrim(" a b "), "a b");
}

TEST(ParseWholeIntTest, ReadsSignedWholeNumbersInRange) {
  int value = 0;
  EXPECT_TRUE(ParseWholeInt("42", 0, 100, &value));
  EXPECT_EQ(value, 42);
  EXPECT_TRUE(ParseWholeInt("-7", INT_MIN, INT_MAX, &value));
  EXPECT_EQ(value, -7);
  EXPECT_TRUE(ParseWholeInt("+3", 1, 3, &value));
  EXPECT_EQ(value, 3);
  EXPECT_TRUE(ParseWholeInt("2147483647", INT_MIN, INT_MAX, &value));
  EXPECT_EQ(value, INT_MAX);
}

TEST(ParseWholeIntTest, RejectsMalformedTextAndLeavesTheOutputAlone) {
  int value = 9;
  for (const char* text : {"", " 3", "3 ", "3x", "two", "1.5", "-", "+",
                           "+-5", "0x10", "4294967297", "2147483648"}) {
    EXPECT_FALSE(ParseWholeInt(text, INT_MIN, INT_MAX, &value)) << text;
  }
  EXPECT_FALSE(ParseWholeInt("0", 1, INT_MAX, &value));
  EXPECT_FALSE(ParseWholeInt("6", 1, 5, &value));
  EXPECT_EQ(value, 9);
}

TEST(ParseWholeIntTest, UnsignedFormCoversUint64AndRejectsNegatives) {
  uint64_t value = 5;
  EXPECT_TRUE(ParseWholeInt("18446744073709551615", uint64_t{0}, UINT64_MAX,
                            &value));
  EXPECT_EQ(value, UINT64_MAX);
  // strtoull would read these as 2^64 - 1 and 0.
  EXPECT_FALSE(ParseWholeInt("-1", uint64_t{0}, UINT64_MAX, &value));
  EXPECT_FALSE(ParseWholeInt("-0", uint64_t{0}, UINT64_MAX, &value));
  EXPECT_FALSE(ParseWholeInt("18446744073709551616", uint64_t{0}, UINT64_MAX,
                             &value));
  EXPECT_FALSE(ParseWholeInt("12x", uint64_t{0}, UINT64_MAX, &value));
  EXPECT_FALSE(ParseWholeInt("9223372036854775808", uint64_t{0},
                             uint64_t{INT64_MAX}, &value));
  EXPECT_EQ(value, UINT64_MAX);
}

}  // namespace
}  // namespace groupsa
