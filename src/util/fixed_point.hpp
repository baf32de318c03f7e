// Q-format fixed-point arithmetic.
//
// The hardware cost model (src/hw) assumes classifiers are implemented in
// fixed point, as the thesis's Vivado HLS flow does. Fixed16 (Q16.16) is the
// datapath word used when quantizing trained models to estimate accuracy
// degradation and to size multipliers/adders.
#pragma once

#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>

#include "util/error.hpp"

namespace hmd {

/// Signed fixed-point value with FRAC fractional bits in a 64-bit container
/// (intermediate products are computed in 128-bit).
template <int FRAC>
class Fixed {
  static_assert(FRAC > 0 && FRAC < 62, "fractional bits out of range");
  __extension__ typedef __int128 Wide;  // GCC/Clang extension

 public:
  static constexpr std::int64_t kOne = std::int64_t{1} << FRAC;

  constexpr Fixed() = default;

  static constexpr Fixed from_raw(std::int64_t raw) {
    Fixed f;
    f.raw_ = raw;
    return f;
  }

  static Fixed from_double(double v) {
    HMD_REQUIRE(std::isfinite(v), "Fixed: value must be finite");
    const double scaled = v * static_cast<double>(kOne);
    // 2^63 as a double: INT64_MAX is not representable and rounds up to
    // it, so the upper bound is exclusive (an inclusive one let 2^63
    // through, and the cast wrapped it to INT64_MIN).
    constexpr double kLimit =
        -static_cast<double>(std::numeric_limits<std::int64_t>::min());
    HMD_REQUIRE(scaled >= -kLimit && scaled < kLimit,
                "Fixed: value overflows representation");
    return from_raw(static_cast<std::int64_t>(std::llround(scaled)));
  }

  constexpr std::int64_t raw() const { return raw_; }
  double to_double() const {
    return static_cast<double>(raw_) / static_cast<double>(kOne);
  }

  friend constexpr Fixed operator+(Fixed a, Fixed b) {
    return from_raw(a.raw_ + b.raw_);
  }
  friend constexpr Fixed operator-(Fixed a, Fixed b) {
    return from_raw(a.raw_ - b.raw_);
  }
  friend constexpr Fixed operator-(Fixed a) { return from_raw(-a.raw_); }
  friend constexpr Fixed operator*(Fixed a, Fixed b) {
    const auto wide = static_cast<Wide>(a.raw_) * b.raw_;
    return from_raw(static_cast<std::int64_t>(wide >> FRAC));
  }
  friend Fixed operator/(Fixed a, Fixed b) {
    HMD_REQUIRE(b.raw_ != 0, "Fixed: division by zero");
    const auto wide = (static_cast<Wide>(a.raw_) << FRAC) / b.raw_;
    return from_raw(static_cast<std::int64_t>(wide));
  }
  friend constexpr auto operator<=>(Fixed a, Fixed b) = default;

  Fixed& operator+=(Fixed b) { raw_ += b.raw_; return *this; }
  Fixed& operator-=(Fixed b) { raw_ -= b.raw_; return *this; }
  Fixed& operator*=(Fixed b) { *this = *this * b; return *this; }

 private:
  std::int64_t raw_ = 0;
};

/// The datapath word used by the HW cost model: Q16.16.
using Fixed16 = Fixed<16>;

/// Quantize a double through Q16.16 and back (models datapath rounding).
inline double quantize_q16(double v) {
  return Fixed16::from_double(v).to_double();
}

}  // namespace hmd
