#include "util/rng.hpp"

#include <cmath>
#include <numbers>

#include "util/error.hpp"

namespace hmd {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& w : state_) w = splitmix64(s);
  // Guard against the (astronomically unlikely) all-zero state.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0)
    state_[0] = 1;
}

double Rng::uniform(double lo, double hi) {
  HMD_REQUIRE(lo <= hi, "uniform: lo must not exceed hi");
  return lo + (hi - lo) * uniform();
}

void Rng::throw_zero_index() {
  detail::throw_precondition("n > 0", __FILE__, __LINE__,
                             "uniform_index: n must be positive");
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  HMD_REQUIRE(lo <= hi, "uniform_int: lo must not exceed hi");
  const auto span =
      static_cast<std::uint64_t>(hi - lo) + 1;  // hi - lo < 2^63, safe
  return lo + static_cast<std::int64_t>(uniform_index(span));
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  spare_normal_ = r * std::sin(theta);
  has_spare_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  HMD_REQUIRE(stddev >= 0.0, "normal: stddev must be non-negative");
  return mean + stddev * normal();
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

std::uint64_t Rng::poisson(double lambda) {
  HMD_REQUIRE(lambda >= 0.0, "poisson: lambda must be non-negative");
  if (lambda == 0.0) return 0;
  if (lambda < 30.0) {
    const double limit = std::exp(-lambda);
    std::uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= uniform();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation with continuity correction; adequate for event
  // counts in the simulator where lambda is large.
  const double x = normal(lambda, std::sqrt(lambda));
  return x <= 0.0 ? 0 : static_cast<std::uint64_t>(x + 0.5);
}

double Rng::exponential(double lambda) {
  HMD_REQUIRE(lambda > 0.0, "exponential: lambda must be positive");
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -std::log(u) / lambda;
}

std::size_t Rng::categorical(const std::vector<double>& weights) {
  HMD_REQUIRE(!weights.empty(), "categorical: weights must be non-empty");
  double total = 0.0;
  for (double w : weights) {
    HMD_REQUIRE(w >= 0.0, "categorical: weights must be non-negative");
    total += w;
  }
  HMD_REQUIRE(total > 0.0, "categorical: at least one weight must be positive");
  double r = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) return i;
  }
  return weights.size() - 1;  // numeric fall-through
}

Rng Rng::fork() { return Rng(next_u64() ^ 0xd2b74407b1ce6e93ull); }

}  // namespace hmd
