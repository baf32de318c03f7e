#include "util/token_reader.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace hmd {
namespace {

/// The ParseError message `fn` throws ("" when it throws none).
template <class Fn>
std::string parse_error(Fn fn) {
  try {
    fn();
  } catch (const ParseError& e) {
    return e.what();
  }
  return "";
}

TEST(TokenReader, SkipsBlankLinesAndCountsEveryLine) {
  std::istringstream in("\n  \t\nalpha 1\r\n\nbeta  2   3\n");
  TokenReader reader(in, "test");
  EXPECT_EQ(reader.count_line("alpha"), 1u);
  reader.line("beta");
  EXPECT_EQ(reader.count("beta"), 2u);
  EXPECT_EQ(reader.peek(), "3");
  EXPECT_EQ(parse_error([&] { reader.end_line(); }),
            "test: line 5: 'beta': unexpected trailing token '3'");
  EXPECT_EQ(reader.count("beta"), 3u);
  EXPECT_FALSE(reader.next_line());
  EXPECT_EQ(parse_error([&] { reader.line("gamma"); }),
            "test: line 7: 'gamma': unexpected end of input");
}

TEST(TokenReader, CountsAreUnsignedDecimalWithinSixtyFourBits) {
  std::istringstream in(
      "n 18446744073709551615 18446744073709551616 -1 +1 1.5 0x10 nan\n");
  TokenReader reader(in, "test");
  reader.line("n");
  EXPECT_EQ(reader.count("n"), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_error([&] { reader.count("n"); }),
            "test: line 1: 'n': '18446744073709551616' exceeds 2^64 - 1");
  for (const char* bad : {"-1", "+1", "1.5", "0x10", "nan"})
    EXPECT_EQ(parse_error([&] { reader.count("n"); }),
              std::string("test: line 1: 'n': '") + bad +
                  "' is not an unsigned integer");
  EXPECT_EQ(parse_error([&] { reader.count("n"); }),
            "test: line 1: 'n': missing value");
}

TEST(TokenReader, RealsRoundTripEveryHexfloatExactly) {
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           -0.1,
                           1e-300,
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
  std::string text = "r";
  for (double v : values) text += " " + hexfloat(v);
  std::istringstream in(text + "\n");
  TokenReader reader(in, "test");
  const std::vector<double> got = reader.reals_line("r");
  ASSERT_EQ(got.size(), std::size(values));
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], values[i]) << hexfloat(values[i]);
    EXPECT_EQ(std::signbit(got[i]), std::signbit(values[i]))
        << hexfloat(values[i]);
  }
}

TEST(TokenReader, RealsRejectNaNAndMalformedTokens) {
  std::istringstream in(
      "r 0 -2.5 1e3 inf nan -nan 0x +0x1p+0 0x-1p+0 1e999 abc\n");
  TokenReader reader(in, "test");
  reader.line("r");
  EXPECT_EQ(reader.real("r"), 0.0);
  EXPECT_EQ(reader.real("r"), -2.5);
  EXPECT_EQ(reader.real("r"), 1000.0);
  EXPECT_EQ(reader.real("r"), std::numeric_limits<double>::infinity());
  EXPECT_EQ(parse_error([&] { reader.real("r"); }),
            "test: line 1: 'r': NaN is not allowed");
  EXPECT_EQ(parse_error([&] { reader.real("r"); }),
            "test: line 1: 'r': NaN is not allowed");
  for (const char* bad : {"0x", "+0x1p+0", "0x-1p+0", "1e999", "abc"})
    EXPECT_EQ(parse_error([&] { reader.real("r"); }),
              std::string("test: line 1: 'r': '") + bad +
                  "' is not a real number");
}

TEST(TokenReader, CountedVectorsHoldExactlyTheirCount) {
  std::istringstream in(
      "v 2 0x1p-1 0x1p+0\nv 3 0x1p-1 0x1p+0\nv 1 0x1p-1 0x1p+0\n"
      "v 4611686018427387904 0x0p+0\n");
  TokenReader reader(in, "test");
  reader.line("v");
  EXPECT_EQ(reader.counted_reals("v"), (std::vector<double>{0.5, 1.0}));
  reader.line("v");
  EXPECT_EQ(parse_error([&] { reader.counted_reals("v"); }),
            "test: line 2: 'v': count 3 but 2 values");
  reader.line("v");
  EXPECT_EQ(parse_error([&] { reader.counted_reals("v"); }),
            "test: line 3: 'v': count 1 but 2 values");
  reader.line("v");
  EXPECT_EQ(parse_error([&] { reader.counted_reals("v"); }),
            "test: line 4: 'v': count 4611686018427387904 but 1 values");
}

TEST(TokenReader, KeywordsFlagsAndPairs) {
  std::istringstream in("head a 1 b 0x1p+1 on 1 off 0 bad 2\n");
  TokenReader reader(in, "test");
  reader.line("head");
  EXPECT_EQ(reader.count_field("a"), 1u);
  EXPECT_EQ(reader.real_field("b"), 2.0);
  EXPECT_EQ(parse_error([&] { reader.keyword("in"); }),
            "test: line 1: 'in': expected 'in', got 'on'");
  EXPECT_TRUE(reader.flag("on"));
  reader.keyword("off");
  EXPECT_FALSE(reader.flag("off"));
  reader.keyword("bad");
  EXPECT_EQ(parse_error([&] { reader.flag("bad"); }),
            "test: line 1: 'bad': '2' must be 0 or 1");
  reader.end_line();
}

TEST(TokenReader, ErrorsQuoteAtMostThirtyTwoCharactersOfAToken) {
  const std::string token(100, 'x');
  std::istringstream in("n " + token + "\n");
  TokenReader reader(in, "test");
  reader.line("n");
  EXPECT_EQ(parse_error([&] { reader.count("n"); }),
            "test: line 1: 'n': '" + std::string(32, 'x') +
                "...' is not an unsigned integer");
}

}  // namespace
}  // namespace hmd
