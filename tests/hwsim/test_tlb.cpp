#include "hwsim/tlb.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace hmd::hwsim {
namespace {

TEST(Tlb, RejectsBadConfig) {
  EXPECT_THROW(Tlb({.entries = 0}), hmd::PreconditionError);
  EXPECT_THROW(Tlb({.entries = 4, .page_bits = 40}), hmd::PreconditionError);
}

TEST(Tlb, FirstTranslationMisses) {
  Tlb tlb({.entries = 4});
  EXPECT_FALSE(tlb.access(0x1000));
  EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, SamePageHits) {
  Tlb tlb({.entries = 4});
  tlb.access(0x1000);
  EXPECT_TRUE(tlb.access(0x1FFF));  // same 4 KiB page
  EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, DifferentPagesMiss) {
  Tlb tlb({.entries = 4});
  tlb.access(0x1000);
  EXPECT_FALSE(tlb.access(0x2000));
}

TEST(Tlb, LruEviction) {
  Tlb tlb({.entries = 2});
  tlb.access(0x1000);  // A
  tlb.access(0x2000);  // B
  tlb.access(0x1000);  // touch A
  tlb.access(0x3000);  // evicts B
  EXPECT_TRUE(tlb.access(0x1000));
  EXPECT_FALSE(tlb.access(0x2000));
}

TEST(Tlb, WorkingSetWithinReachAllHits) {
  Tlb tlb({.entries = 8});
  for (int pass = 0; pass < 3; ++pass)
    for (std::uint64_t p = 0; p < 8; ++p) tlb.access(p << 12);
  EXPECT_EQ(tlb.misses(), 8u);
}

TEST(Tlb, WorkingSetBeyondReachThrashes) {
  Tlb tlb({.entries = 8});
  for (int pass = 0; pass < 2; ++pass)
    for (std::uint64_t p = 0; p < 64; ++p) tlb.access(p << 12);
  EXPECT_DOUBLE_EQ(tlb.miss_rate(), 1.0);
}

TEST(Tlb, FlushInvalidates) {
  Tlb tlb({.entries = 4});
  tlb.access(0x1000);
  tlb.flush();
  EXPECT_FALSE(tlb.access(0x1000));
}

TEST(Tlb, ResetStatsKeepsEntries) {
  Tlb tlb({.entries = 4});
  tlb.access(0x1000);
  tlb.reset_stats();
  EXPECT_EQ(tlb.accesses(), 0u);
  EXPECT_TRUE(tlb.access(0x1000));
}

TEST(Tlb, LargePagesWidenReach) {
  Tlb small({.entries = 2, .page_bits = 12});
  Tlb large({.entries = 2, .page_bits = 21});  // 2 MiB pages
  for (std::uint64_t a = 0; a < 4u << 12; a += 1 << 12) {
    small.access(a);
    large.access(a);
  }
  EXPECT_GT(small.misses(), large.misses());
}

// Naive true-LRU reference: pages ordered most- to least-recently used.
class ReferenceLru {
 public:
  ReferenceLru(std::uint32_t entries, std::uint32_t page_bits)
      : entries_(entries), page_bits_(page_bits) {}

  bool access(std::uint64_t addr) {
    const std::uint64_t vpn = addr >> page_bits_;
    const auto it = std::find(pages_.begin(), pages_.end(), vpn);
    const bool hit = it != pages_.end();
    if (hit) pages_.erase(it);
    pages_.insert(pages_.begin(), vpn);
    if (pages_.size() > entries_) pages_.pop_back();
    if (!hit) ++misses_;
    return hit;
  }
  void flush() { pages_.clear(); }
  std::uint64_t misses() const { return misses_; }

 private:
  std::uint32_t entries_;
  std::uint32_t page_bits_;
  std::vector<std::uint64_t> pages_;
  std::uint64_t misses_ = 0;
};

TEST(Tlb, MatchesNaiveTrueLru) {
  for (std::uint32_t entries : {1u, 3u, 48u, 64u}) {
    for (std::uint32_t page_bits : {12u, 21u}) {
      Tlb tlb({.entries = entries, .page_bits = page_bits});
      ReferenceLru ref(entries, page_bits);
      Rng rng(0x71b0 + entries * 31 + page_bits);
      // A hot set slightly larger than the TLB keeps both hits and
      // capacity evictions frequent; cold pages are almost never reused.
      const std::uint64_t hot_pages = entries + entries / 4 + 2;
      std::uint64_t addr = 0;
      for (int i = 0; i < 20000; ++i) {
        if (i == 10000) {
          tlb.flush();
          ref.flush();
        }
        const double u = rng.uniform();
        const std::uint64_t offset =
            rng.uniform_index(std::uint64_t{1} << page_bits);
        if (u < 0.3) {
          addr = ((addr >> page_bits) << page_bits) | offset;  // same page
        } else if (u < 0.85) {
          addr = (rng.uniform_index(hot_pages) << page_bits) | offset;
        } else {
          const std::uint64_t cold =
              (std::uint64_t{1} << 20) + rng.uniform_index(1u << 20);
          addr = (cold << page_bits) | offset;
        }
        ASSERT_EQ(tlb.access(addr), ref.access(addr))
            << "entries=" << entries << " page_bits=" << page_bits
            << " access " << i;
      }
      EXPECT_EQ(tlb.misses(), ref.misses());
      EXPECT_EQ(tlb.accesses(), 20000u);
    }
  }
}

}  // namespace
}  // namespace hmd::hwsim
