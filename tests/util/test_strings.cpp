#include "util/strings.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace hmd {
namespace {

TEST(Split, BasicFields) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Split, KeepsEmptyFields) {
  const auto parts = split(",x,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[2], "");
}

TEST(Split, SingleField) {
  const auto parts = split("alone", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "alone");
}

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("\t\nx\r "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("no-ws"), "no-ws");
}

TEST(Join, WithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(ToLower, AsciiOnly) {
  EXPECT_EQ(to_lower("MiXeD-42"), "mixed-42");
}

TEST(IStartsWith, CaseInsensitive) {
  EXPECT_TRUE(istarts_with("@ATTRIBUTE foo", "@attribute"));
  EXPECT_FALSE(istarts_with("@attr", "@attribute"));
  EXPECT_TRUE(istarts_with("abc", ""));
}

TEST(ParseDouble, ValidValues) {
  EXPECT_DOUBLE_EQ(parse_double("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(parse_double(" -1e3 "), -1000.0);
  EXPECT_DOUBLE_EQ(parse_double("0"), 0.0);
}

TEST(ParseDouble, InvalidThrows) {
  EXPECT_THROW(parse_double("abc"), ParseError);
  EXPECT_THROW(parse_double("1.5x"), ParseError);
  EXPECT_THROW(parse_double(""), ParseError);
}

TEST(ParseDouble, NonFiniteThrows) {
  for (const char* text :
       {"nan", "NaN", "-nan", "nan(1)", "inf", "-inf", "+inf", "INF",
        "infinity", " inf "})
    EXPECT_THROW(parse_double(text), ParseError) << text;
  EXPECT_THROW(parse_double("1e400"), ParseError);  // overflows to inf
}

TEST(ParseInt, ValidValues) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int(" -7 "), -7);
}

TEST(ParseInt, InvalidThrows) {
  EXPECT_THROW(parse_int("4.5"), ParseError);
  EXPECT_THROW(parse_int("x"), ParseError);
}

TEST(Format, PrintfStyle) {
  EXPECT_EQ(format("%d-%s", 7, "ok"), "7-ok");
  EXPECT_EQ(format("%.2f", 1.005), "1.00");
  EXPECT_EQ(format("empty"), "empty");
}

}  // namespace
}  // namespace hmd
