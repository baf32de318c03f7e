#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace hmd {
namespace {

TEST(Rng, IsDeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DiffersAcrossSeeds) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.5, 7.5);
    EXPECT_GE(v, -2.5);
    EXPECT_LT(v, 7.5);
  }
}

TEST(Rng, UniformRejectsInvertedBounds) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform(2.0, 1.0), PreconditionError);
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(5);
  EXPECT_THROW(rng.uniform_index(0), PreconditionError);
}

TEST(Rng, UniformIndexIsUnbiased) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(10)];
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 10 * 0.06);
}

TEST(Rng, UniformIndexMatchesTheTwoDivisionFormula) {
  // The reference computes the rejection threshold (2^64 - n) mod n on
  // every draw; uniform_index skips it when the draw is >= n. The drawn
  // indices and the generator state must not differ.
  const auto reference = [](Rng& rng, std::uint64_t n) {
    const std::uint64_t threshold = (~n + 1) % n;
    for (;;) {
      const std::uint64_t r = rng.next_u64();
      if (r >= threshold) return r % n;
    }
  };
  const std::uint64_t sizes[] = {1, 3, 120, std::uint64_t{1} << 32,
                                 (std::uint64_t{1} << 63) + 5};
  for (const std::uint64_t n : sizes) {
    Rng fast(29);
    Rng slow(29);
    for (int i = 0; i < 20000; ++i)
      ASSERT_EQ(fast.uniform_index(n), reference(slow, n))
          << "n " << n << " draw " << i;
    EXPECT_EQ(fast.next_u64(), slow.next_u64()) << "n " << n;
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(17);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(19);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, NormalScalesMeanAndStddev) {
  Rng rng(23);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.normal(10.0, 3.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 3.0, 0.1);
}

TEST(Rng, NormalRejectsNegativeStddev) {
  Rng rng(23);
  EXPECT_THROW(rng.normal(0.0, -1.0), PreconditionError);
}

TEST(Rng, LognormalIsPositive) {
  Rng rng(29);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 0.5), 0.0);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(31);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliZeroAndOneAreDegenerate) {
  Rng rng(37);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, PoissonMeanMatchesLambdaSmall) {
  Rng rng(41);
  RunningStats s;
  for (int i = 0; i < 50000; ++i)
    s.add(static_cast<double>(rng.poisson(3.5)));
  EXPECT_NEAR(s.mean(), 3.5, 0.1);
}

TEST(Rng, PoissonMeanMatchesLambdaLarge) {
  Rng rng(43);
  RunningStats s;
  for (int i = 0; i < 20000; ++i)
    s.add(static_cast<double>(rng.poisson(100.0)));
  EXPECT_NEAR(s.mean(), 100.0, 1.0);
}

TEST(Rng, PoissonZeroLambdaIsZero) {
  Rng rng(47);
  EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, ExponentialMeanIsInverseRate) {
  Rng rng(53);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.exponential(2.0));
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(59);
  std::vector<double> weights = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.categorical(weights)];
  EXPECT_NEAR(counts[0], n * 0.1, n * 0.01);
  EXPECT_NEAR(counts[1], n * 0.3, n * 0.015);
  EXPECT_NEAR(counts[2], n * 0.6, n * 0.015);
}

TEST(Rng, CategoricalSkipsZeroWeights) {
  Rng rng(61);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.categorical(weights), 1u);
}

TEST(Rng, CategoricalRejectsBadInput) {
  Rng rng(61);
  EXPECT_THROW(rng.categorical({}), PreconditionError);
  EXPECT_THROW(rng.categorical({0.0, 0.0}), PreconditionError);
  EXPECT_THROW(rng.categorical({-1.0, 2.0}), PreconditionError);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(67);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(71);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  const auto original = v;
  rng.shuffle(v);
  EXPECT_NE(v, original);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(73);
  Rng child = parent.fork();
  // The child stream differs from the parent's continued stream.
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (parent.next_u64() == child.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, SplitmixAdvancesState) {
  std::uint64_t s = 1;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
}

// Golden stream: every dataset, corpus and bench in the repository is a
// function of these draws, so each distribution's output for a fixed seed
// is pinned by an FNV-1a hash. A host-speed change to the generator must
// leave every constant unchanged.
std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 1099511628211ull;
}

std::uint64_t stream_hash(const std::function<std::uint64_t(Rng&)>& draw) {
  Rng rng(0x601d);
  std::uint64_t h = 1469598103934665603ull;
  for (int i = 0; i < 4096; ++i) h = fnv_mix(h, draw(rng));
  return h;
}

TEST(Rng, GoldenStreamPerDistribution) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const auto index = [](std::uint64_t n) {
    return [n](Rng& r) { return r.uniform_index(n); };
  };
  struct Case {
    const char* name;
    std::function<std::uint64_t(Rng&)> draw;
    std::uint64_t golden;
  };
  const Case cases[] = {
      {"next_u64", [](Rng& r) { return r.next_u64(); }, 0x6d29fe60d8e53ae3},
      {"uniform", [&](Rng& r) { return bits(r.uniform()); },
       0x82fc9f801e3d267d},
      {"uniform(lo, hi)", [&](Rng& r) { return bits(r.uniform(-3.5, 9.25)); },
       0xdb0504ffd0d9e21d},
      {"bernoulli", [](Rng& r) { return std::uint64_t{r.bernoulli(0.3)}; },
       0xb7cc6ae9834bc0a3},
      {"normal", [&](Rng& r) { return bits(r.normal()); }, 0x200515a205fac6c7},
      {"shuffle",
       [](Rng& r) {
         std::vector<std::uint64_t> v(37);
         for (std::size_t i = 0; i < v.size(); ++i) v[i] = i;
         r.shuffle(v);
         std::uint64_t h = 0;
         for (std::uint64_t x : v) h = fnv_mix(h, x);
         return h;
       },
       0x34a9993873981839},
      {"uniform_index(1)", index(1), 0xb43a063055adc383},
      {"uniform_index(3)", index(3), 0xa1099c11091b8839},
      {"uniform_index(4097)", index(4097), 0x05b422b5f367e986},
      // About half of all draws fall below the rejection threshold here.
      {"uniform_index(2^63 + 1)", index((std::uint64_t{1} << 63) + 1),
       0x0dd8b0e321002d14},
  };
  for (const Case& c : cases)
    EXPECT_EQ(stream_hash(c.draw), c.golden)
        << c.name << ": 0x" << std::hex << stream_hash(c.draw);
}

// Property sweep: moments hold across seeds.
class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformMeanStableAcrossSeeds) {
  Rng rng(GetParam());
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.02);
}

TEST_P(RngSeedSweep, NormalSymmetricAcrossSeeds) {
  Rng rng(GetParam());
  int positive = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) positive += rng.normal() > 0.0;
  EXPECT_NEAR(static_cast<double>(positive) / n, 0.5, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(1ull, 42ull, 2018ull, 0xdeadbeefull,
                                           ~0ull));

}  // namespace
}  // namespace hmd
