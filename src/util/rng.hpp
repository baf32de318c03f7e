// Deterministic pseudo-random number generation.
//
// Every stochastic component in hmdetect draws from an explicitly seeded Rng
// so that datasets, experiments, and benches are bit-reproducible. The
// generator is xoshiro256** (Blackman & Vigna), seeded through splitmix64,
// which has excellent statistical quality and is much faster than mt19937.
//
// The draws the trace generator makes per simulated op (`next_u64`,
// `uniform()`, `bernoulli`, `uniform_index`) are defined inline below, so
// they compile into their callers instead of crossing a library boundary.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

namespace hmd {

/// xoshiro256** PRNG with convenience distributions.
///
/// Satisfies the essentials of UniformRandomBitGenerator so it can be used
/// with <random> if desired, but the member distributions below are
/// deterministic across platforms (libstdc++ distributions are not
/// guaranteed to be).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }
  result_type operator()() { return next_u64(); }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 high bits → double in [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n) {
    if (n == 0) [[unlikely]]
      throw_zero_index();
    // Rejection removes modulo bias: a draw below (2^64 - n) mod n is
    // redrawn. That threshold is always < n, so a draw r >= n is accepted
    // without computing it; only the rare r < n pays the second division.
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= n || r >= (~n + 1) % n) return r % n;
    }
  }
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Standard normal via Box–Muller (cached spare).
  double normal();
  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);
  /// Log-normal: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma);
  /// Bernoulli trial with probability p of true.
  bool bernoulli(double p) { return uniform() < p; }
  /// Poisson-distributed count (Knuth for small lambda, normal approx above).
  std::uint64_t poisson(double lambda);
  /// Exponential with rate lambda.
  double exponential(double lambda);
  /// Sample an index from unnormalized non-negative weights.
  std::size_t categorical(const std::vector<double>& weights);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_index(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Derives an independent child generator (for parallel-safe streams).
  Rng fork();

 private:
  /// Throws PreconditionError for uniform_index(0); kept out of line.
  [[noreturn, gnu::cold]] static void throw_zero_index();

  std::array<std::uint64_t, 4> state_{};
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

/// splitmix64 step; exposed for deterministic seed derivation elsewhere.
std::uint64_t splitmix64(std::uint64_t& x);

}  // namespace hmd
