#include "hwsim/cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace hmd::hwsim {
namespace {

CacheConfig tiny_cache(std::uint32_t ways = 2) {
  // 1 KiB, 64 B lines → 16 lines; 2-way → 8 sets.
  return {.name = "T", .size_bytes = 1024, .ways = ways, .line_bytes = 64};
}

TEST(CacheConfig, GeometryComputation) {
  const CacheConfig c = haswell_l1d();
  EXPECT_EQ(c.num_sets(), 64u);  // 32 KiB / 64 B / 8 ways
  c.validate();
}

TEST(CacheConfig, RejectsNonPowerOfTwoLines) {
  CacheConfig c = tiny_cache();
  c.line_bytes = 48;
  EXPECT_THROW(c.validate(), PreconditionError);
}

TEST(CacheConfig, RejectsIndivisibleCapacity) {
  CacheConfig c{.name = "bad", .size_bytes = 1000, .ways = 2,
                .line_bytes = 64};
  EXPECT_THROW(c.validate(), PreconditionError);
}

TEST(Cache, FirstAccessMisses) {
  Cache c(tiny_cache());
  const auto r = c.access(0x1000, false);
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(c.load_misses(), 1u);
}

TEST(Cache, SecondAccessSameLineHits) {
  Cache c(tiny_cache());
  c.access(0x1000, false);
  const auto r = c.access(0x1020, false);  // same 64B line
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(c.loads(), 2u);
  EXPECT_EQ(c.load_misses(), 1u);
}

TEST(Cache, DifferentLinesMissIndependently) {
  Cache c(tiny_cache());
  c.access(0x0, false);
  const auto r = c.access(0x40, false);
  EXPECT_FALSE(r.hit);
}

TEST(Cache, LruEvictsOldest) {
  // 2-way set: fill both ways, touch the first, insert a third conflicting
  // line; the second (least recent) must be evicted.
  Cache c(tiny_cache());
  const std::uint64_t set_stride = 8 * 64;  // 8 sets
  c.access(0 * set_stride, false);          // way A
  c.access(1 * set_stride, false);          // way B
  c.access(0 * set_stride, false);          // touch A
  c.access(2 * set_stride, false);          // evicts B
  EXPECT_TRUE(c.access(0 * set_stride, false).hit);   // A still present
  EXPECT_FALSE(c.access(1 * set_stride, false).hit);  // B evicted
}

TEST(Cache, DirtyEvictionSignalsWriteback) {
  Cache c(tiny_cache());
  const std::uint64_t set_stride = 8 * 64;
  c.access(0, true);                       // dirty line in way A
  c.access(1 * set_stride, false);         // way B
  const auto r = c.access(2 * set_stride, false);  // evicts dirty A
  EXPECT_TRUE(r.writeback);
}

TEST(Cache, CleanEvictionHasNoWriteback) {
  Cache c(tiny_cache());
  const std::uint64_t set_stride = 8 * 64;
  c.access(0, false);
  c.access(1 * set_stride, false);
  const auto r = c.access(2 * set_stride, false);
  EXPECT_FALSE(r.writeback);
}

TEST(Cache, StoreMissesCounted) {
  Cache c(tiny_cache());
  c.access(0x2000, true);
  EXPECT_EQ(c.stores(), 1u);
  EXPECT_EQ(c.store_misses(), 1u);
  c.access(0x2000, true);
  EXPECT_EQ(c.store_misses(), 1u);
}

TEST(Cache, FlushDropsEverything) {
  Cache c(tiny_cache());
  c.access(0x3000, false);
  c.flush();
  EXPECT_FALSE(c.access(0x3000, false).hit);
}

TEST(Cache, ResetStatsKeepsContents) {
  Cache c(tiny_cache());
  c.access(0x3000, false);
  c.reset_stats();
  EXPECT_EQ(c.loads(), 0u);
  EXPECT_TRUE(c.access(0x3000, false).hit);
}

TEST(Cache, MissRateComputation) {
  Cache c(tiny_cache());
  EXPECT_EQ(c.miss_rate(), 0.0);
  c.access(0x0, false);   // miss
  c.access(0x0, false);   // hit
  EXPECT_DOUBLE_EQ(c.miss_rate(), 0.5);
}

TEST(Cache, WorkingSetSmallerThanCacheEventuallyAllHits) {
  Cache c(tiny_cache());
  // 8 distinct lines in a 16-line cache; first pass misses, later passes hit.
  for (int pass = 0; pass < 3; ++pass)
    for (std::uint64_t line = 0; line < 8; ++line)
      c.access(line * 64, false);
  EXPECT_EQ(c.load_misses(), 8u);
  EXPECT_EQ(c.loads(), 24u);
}

TEST(Cache, WorkingSetLargerThanCacheThrashes) {
  Cache c(tiny_cache());
  // 64 distinct lines cycling through a 16-line cache: every access misses.
  for (int pass = 0; pass < 2; ++pass)
    for (std::uint64_t line = 0; line < 64; ++line)
      c.access(line * 64, false);
  EXPECT_DOUBLE_EQ(c.miss_rate(), 1.0);
}

// Geometry sweep: invariants hold across configurations.
struct Geometry {
  std::uint64_t size;
  std::uint32_t ways;
};

// gtest_discover_tests names each case after its printed parameter; without
// this the default printer dumps the struct's bytes, padding included, so
// the names would change from build to build.
void PrintTo(const Geometry& g, std::ostream* os) {
  *os << g.size << "B_" << g.ways << "way";
}

class CacheGeometrySweep : public ::testing::TestWithParam<Geometry> {};

TEST_P(CacheGeometrySweep, SequentialScanMissesOncePerLine) {
  const auto [size, ways] = GetParam();
  Cache c({.name = "S", .size_bytes = size, .ways = ways, .line_bytes = 64});
  const std::uint64_t lines = size / 64;
  for (std::uint64_t i = 0; i < lines; ++i) c.access(i * 64, false);
  EXPECT_EQ(c.load_misses(), lines);
  // Second pass fully hits (fits exactly).
  for (std::uint64_t i = 0; i < lines; ++i) c.access(i * 64, false);
  EXPECT_EQ(c.load_misses(), lines);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometrySweep,
    ::testing::Values(Geometry{1024, 1}, Geometry{1024, 2}, Geometry{4096, 4},
                      Geometry{16384, 8}, Geometry{65536, 16}));

// Replacement-policy behaviour.

TEST(CachePolicy, RoundRobinCyclesWays) {
  Cache c({.name = "rr", .size_bytes = 1024, .ways = 2, .line_bytes = 64,
           .policy = ReplacementPolicy::kRoundRobin});
  const std::uint64_t set_stride = 8 * 64;
  c.access(0 * set_stride, false);  // way 0
  c.access(1 * set_stride, false);  // way 1
  c.access(0 * set_stride, false);  // touch A (irrelevant to round-robin)
  c.access(2 * set_stride, false);  // evicts way 0 (A) despite recency
  EXPECT_FALSE(c.access(0 * set_stride, false).hit);
}

TEST(CachePolicy, RandomIsDeterministicPerInstance) {
  auto run = [] {
    Cache c({.name = "r", .size_bytes = 1024, .ways = 4, .line_bytes = 64,
             .policy = ReplacementPolicy::kRandom});
    std::uint64_t misses = 0;
    for (std::uint64_t a = 0; a < 64 * 1024; a += 64)
      misses += !c.access(a % (8 * 1024), false).hit;
    return misses;
  };
  EXPECT_EQ(run(), run());
}

TEST(CachePolicy, LruBeatsRandomOnReuseHeavyPattern) {
  auto misses_with = [](ReplacementPolicy policy) {
    Cache c({.name = "p", .size_bytes = 4096, .ways = 4, .line_bytes = 64,
             .policy = policy});
    std::uint64_t misses = 0;
    // Hot set reused constantly + cold streaming interference.
    std::uint64_t cold = 1 << 20;
    for (int round = 0; round < 2000; ++round) {
      for (std::uint64_t h = 0; h < 8; ++h)
        misses += !c.access(h * 64, false).hit;  // hot lines
      cold += 64;
      misses += !c.access(cold, false).hit;  // streaming line
    }
    return misses;
  };
  EXPECT_LT(misses_with(ReplacementPolicy::kLru),
            misses_with(ReplacementPolicy::kRandom));
}

TEST(CachePolicy, AllPoliciesAgreeOnFullyResidentWorkingSets) {
  for (ReplacementPolicy policy :
       {ReplacementPolicy::kLru, ReplacementPolicy::kRoundRobin,
        ReplacementPolicy::kRandom}) {
    Cache c({.name = "x", .size_bytes = 2048, .ways = 2, .line_bytes = 64,
             .policy = policy});
    for (int pass = 0; pass < 3; ++pass)
      for (std::uint64_t a = 0; a < 2048; a += 64) c.access(a, false);
    EXPECT_EQ(c.load_misses(), 32u);  // compulsory only
  }
}

TEST(CacheConfig, RejectsSingleByteSingleSetGeometry) {
  // Every address bit would be tag, so a tag could equal the marker of an
  // invalid way.
  CacheConfig c{.name = "b", .size_bytes = 4, .ways = 4, .line_bytes = 1};
  EXPECT_THROW(c.validate(), PreconditionError);
  c.size_bytes = 8;  // two sets
  c.validate();
}

// Naive write-back, write-allocate true-LRU reference: each set is a list
// of lines ordered most- to least-recently used.
class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& config)
      : ways_(config.ways),
        line_bytes_(config.line_bytes),
        sets_(config.num_sets()),
        lines_(sets_) {}

  CacheAccessResult access(std::uint64_t addr, bool is_store) {
    ++(is_store ? stores : loads);
    const CacheAccessResult r = touch(addr, is_store);
    if (!r.hit) ++(is_store ? store_misses : load_misses);
    return r;
  }
  CacheAccessResult fill(std::uint64_t addr) { return touch(addr, false); }
  void flush() {
    for (auto& set : lines_) set.clear();
  }

  std::uint64_t loads = 0, stores = 0, load_misses = 0, store_misses = 0;

 private:
  struct Line {
    std::uint64_t block;
    bool dirty;
  };

  CacheAccessResult touch(std::uint64_t addr, bool dirty) {
    const std::uint64_t block = addr / line_bytes_;
    std::vector<Line>& set = lines_[block % sets_];
    const auto it = std::find_if(set.begin(), set.end(), [&](const Line& l) {
      return l.block == block;
    });
    CacheAccessResult r;
    if (it != set.end()) {
      r.hit = true;
      dirty = dirty || it->dirty;
      set.erase(it);
    } else if (set.size() == ways_) {
      r.writeback = set.back().dirty;
      set.pop_back();
    }
    set.insert(set.begin(), {block, dirty});
    return r;
  }

  std::size_t ways_;
  std::uint64_t line_bytes_;
  std::uint64_t sets_;
  std::vector<std::vector<Line>> lines_;
};

TEST(Cache, MatchesNaiveTrueLru) {
  const CacheConfig configs[] = {
      miniature_l1d(),  // 8-way, 32 sets
      haswell_llc(),    // 12-way, 8192 sets
      {.name = "toy", .size_bytes = 4 * 16 * 64, .ways = 16, .line_bytes = 64},
  };
  for (const CacheConfig& config : configs) {
    Cache cache(config);
    ReferenceCache ref(config);
    Rng rng(0xcace + config.ways);
    const std::uint64_t sets = config.num_sets();
    // Most traffic goes to four sets, with a per-set hot pool slightly
    // larger than the associativity, so hits, dirty and clean evictions
    // and refills of evicted lines are all frequent.
    const std::uint64_t hot_sets = std::min<std::uint64_t>(sets, 4);
    const std::uint64_t hot_tags = config.ways + config.ways / 4 + 2;
    for (int i = 0; i < 40000; ++i) {
      if (i == 20000) {
        cache.flush();
        ref.flush();
      }
      const std::uint64_t set = rng.bernoulli(0.9)
                                    ? rng.uniform_index(hot_sets)
                                    : rng.uniform_index(sets);
      const std::uint64_t tag =
          rng.bernoulli(0.85) ? rng.uniform_index(hot_tags)
                              : (std::uint64_t{1} << 30) +
                                    rng.uniform_index(std::uint64_t{1} << 30);
      const std::uint64_t addr = (tag * sets + set) * config.line_bytes +
                                 rng.uniform_index(config.line_bytes);
      const double kind = rng.uniform();
      CacheAccessResult got, want;
      if (kind < 0.5) {
        got = cache.access(addr, false);
        want = ref.access(addr, false);
      } else if (kind < 0.8) {
        got = cache.access(addr, true);
        want = ref.access(addr, true);
      } else {
        got = cache.fill(addr);
        want = ref.fill(addr);
      }
      ASSERT_EQ(got.hit, want.hit) << config.name << " step " << i;
      ASSERT_EQ(got.writeback, want.writeback) << config.name << " step " << i;
      ASSERT_EQ(cache.loads(), ref.loads) << config.name << " step " << i;
      ASSERT_EQ(cache.stores(), ref.stores) << config.name << " step " << i;
      ASSERT_EQ(cache.load_misses(), ref.load_misses)
          << config.name << " step " << i;
      ASSERT_EQ(cache.store_misses(), ref.store_misses)
          << config.name << " step " << i;
    }
  }
}

TEST(HaswellConfigs, AllValidate) {
  haswell_l1i().validate();
  haswell_l1d().validate();
  haswell_l2().validate();
  haswell_llc().validate();
  miniature_l1i().validate();
  miniature_l1d().validate();
  miniature_l2().validate();
  miniature_llc().validate();
}

TEST(HaswellConfigs, MiniatureIsSmallerSameShape) {
  EXPECT_LT(miniature_llc().size_bytes, haswell_llc().size_bytes);
  EXPECT_EQ(miniature_l1d().line_bytes, haswell_l1d().line_bytes);
}

}  // namespace
}  // namespace hmd::hwsim
