#include "util/fixed_point.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/rng.hpp"

namespace hmd {
namespace {

TEST(Fixed16, RoundTripsSmallValues) {
  for (double v : {0.0, 1.0, -1.0, 0.5, -0.25, 123.456, -987.125}) {
    EXPECT_NEAR(Fixed16::from_double(v).to_double(), v, 1.0 / 65536.0);
  }
}

TEST(Fixed16, OneHasExpectedRaw) {
  EXPECT_EQ(Fixed16::from_double(1.0).raw(), Fixed16::kOne);
}

TEST(Fixed16, AdditionExact) {
  const auto a = Fixed16::from_double(1.5);
  const auto b = Fixed16::from_double(2.25);
  EXPECT_DOUBLE_EQ((a + b).to_double(), 3.75);
}

TEST(Fixed16, SubtractionAndNegation) {
  const auto a = Fixed16::from_double(1.0);
  const auto b = Fixed16::from_double(3.0);
  EXPECT_DOUBLE_EQ((a - b).to_double(), -2.0);
  EXPECT_DOUBLE_EQ((-a).to_double(), -1.0);
}

TEST(Fixed16, MultiplicationNearExact) {
  const auto a = Fixed16::from_double(3.0);
  const auto b = Fixed16::from_double(-2.5);
  EXPECT_NEAR((a * b).to_double(), -7.5, 1e-4);
}

TEST(Fixed16, DivisionNearExact) {
  const auto a = Fixed16::from_double(7.5);
  const auto b = Fixed16::from_double(2.5);
  EXPECT_NEAR((a / b).to_double(), 3.0, 1e-4);
}

TEST(Fixed16, DivisionByZeroThrows) {
  const auto a = Fixed16::from_double(1.0);
  EXPECT_THROW((void)(a / Fixed16{}), PreconditionError);
}

TEST(Fixed16, ComparisonOperators) {
  const auto a = Fixed16::from_double(1.0);
  const auto b = Fixed16::from_double(2.0);
  EXPECT_LT(a, b);
  EXPECT_EQ(a, Fixed16::from_double(1.0));
  EXPECT_GT(b, a);
}

TEST(Fixed16, CompoundAssignment) {
  auto a = Fixed16::from_double(1.0);
  a += Fixed16::from_double(2.0);
  EXPECT_DOUBLE_EQ(a.to_double(), 3.0);
  a -= Fixed16::from_double(0.5);
  EXPECT_DOUBLE_EQ(a.to_double(), 2.5);
  a *= Fixed16::from_double(2.0);
  EXPECT_NEAR(a.to_double(), 5.0, 1e-4);
}

TEST(Fixed16, NonFiniteThrows) {
  EXPECT_THROW(Fixed16::from_double(std::nan("")), PreconditionError);
  EXPECT_THROW(Fixed16::from_double(INFINITY), PreconditionError);
  // Finite values just outside the Q16.16 range of the 64-bit container.
  EXPECT_THROW(Fixed16::from_double(std::ldexp(1.0, 47)), PreconditionError);
  EXPECT_THROW(Fixed16::from_double(-std::ldexp(1.0, 47) - 1.0),
               PreconditionError);
  EXPECT_EQ(Fixed16::from_double(-std::ldexp(1.0, 47)).raw(),
            std::numeric_limits<std::int64_t>::min());
}

TEST(QuantizeQ16, ErrorBounded) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-1e4, 1e4);
    EXPECT_NEAR(quantize_q16(v), v, 1.0 / 65536.0);
  }
}

// Property: quantization is idempotent.
class QuantizeSweep : public ::testing::TestWithParam<double> {};

TEST_P(QuantizeSweep, Idempotent) {
  const double q = quantize_q16(GetParam());
  EXPECT_DOUBLE_EQ(quantize_q16(q), q);
}

INSTANTIATE_TEST_SUITE_P(Values, QuantizeSweep,
                         ::testing::Values(0.0, 1e-6, -1e-6, 3.14159, -2.71828,
                                           1000.125, -31415.9));

}  // namespace
}  // namespace hmd
