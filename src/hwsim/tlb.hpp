// Fully-associative translation lookaside buffer with LRU replacement.
//
// Separate instances model the iTLB and dTLB; the PMU counts their load
// misses (iTLB-load-misses is one of the paper's 16 features).
//
// Layout for host speed: page numbers and recency stamps live in two flat
// arrays, scanned linearly, and the entry hit or filled last is checked
// before the scan (straight-line code translates the same page many times
// in a row). Which entry holds a page is unobservable; the hit/miss
// sequence is exactly true LRU.
#pragma once

#include <cstdint>
#include <vector>

namespace hmd::hwsim {

/// TLB geometry.
struct TlbConfig {
  std::uint32_t entries = 64;
  std::uint32_t page_bits = 12;  ///< 4 KiB pages
};

/// Fully-associative TLB, true LRU.
class Tlb {
 public:
  explicit Tlb(TlbConfig config = {});

  /// Translates `addr`; returns true on a TLB hit.
  bool access(std::uint64_t addr);

  void flush();

  std::uint64_t accesses() const { return accesses_; }
  std::uint64_t misses() const { return misses_; }
  double miss_rate() const;
  void reset_stats();

 private:
  /// Marks a free entry. No page number reaches it: page_bits >= 10.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  TlbConfig config_;
  std::vector<std::uint64_t> vpns_;  ///< page number per entry, or kEmpty
  std::vector<std::uint64_t> lru_;   ///< last-use stamp; 0 while free
  std::size_t last_ = 0;             ///< entry hit or filled last
  std::uint64_t lru_clock_ = 0;
  std::uint64_t accesses_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace hmd::hwsim
