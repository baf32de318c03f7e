// Set-associative cache model with true-LRU replacement.
//
// Timing is not modeled here; the Core charges miss penalties. The cache
// only answers hit/miss and maintains per-port access statistics, which is
// all the PMU needs.
//
// Layout for host speed: tags, recency stamps and dirty bits live in three
// flat arrays, one run of `ways` entries per set, so a set's tags share a
// host cache line. A lookup compares every tag of the set without an early
// exit (tags in a set are distinct, so at most one matches), and the LRU
// victim is the first smallest stamp, with 0 marking an invalid way.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hmd::hwsim {

/// Victim selection policy.
enum class ReplacementPolicy : std::uint8_t {
  kLru,         ///< true LRU (default; what the thesis's Haswell models)
  kRoundRobin,  ///< per-set rotating pointer (FIFO-like; common in L1I)
  kRandom,      ///< pseudo-random way (deterministic xorshift)
};

/// Geometry of one cache level.
struct CacheConfig {
  std::string name;              ///< e.g. "L1D"
  std::uint64_t size_bytes = 0;  ///< total capacity
  std::uint32_t ways = 1;        ///< associativity
  std::uint32_t line_bytes = 64;
  ReplacementPolicy policy = ReplacementPolicy::kLru;

  std::uint64_t num_sets() const;
  /// Validates the geometry (power-of-two sets/lines, size divisible, and
  /// at least two bytes per set so that a tag has fewer than 64 bits).
  void validate() const;
};

/// Result of a single cache access.
struct CacheAccessResult {
  bool hit = false;
  /// True when the access victimized a dirty line (write-back traffic).
  bool writeback = false;
};

/// One level of a write-back, write-allocate cache with true LRU.
class Cache {
 public:
  explicit Cache(CacheConfig config);

  /// Performs a load (`is_store == false`) or store at `addr`.
  CacheAccessResult access(std::uint64_t addr, bool is_store);

  /// Installs the line containing `addr` without counting demand
  /// statistics (prefetch fills). Returns hit=true when the line was
  /// already present; writeback reports a dirty eviction.
  CacheAccessResult fill(std::uint64_t addr);

  /// Invalidate everything and restart the replacement state (e.g. between
  /// sandboxed runs); statistics are kept.
  void flush();

  const CacheConfig& config() const { return config_; }
  std::uint64_t loads() const { return loads_; }
  std::uint64_t stores() const { return stores_; }
  std::uint64_t load_misses() const { return load_misses_; }
  std::uint64_t store_misses() const { return store_misses_; }
  std::uint64_t accesses() const { return loads_ + stores_; }
  std::uint64_t misses() const { return load_misses_ + store_misses_; }
  double miss_rate() const;
  void reset_stats();

 private:
  /// Tag of an invalid way. No tag reaches it: validate() leaves at least
  /// one address bit to the line offset or the set index.
  static constexpr std::uint64_t kInvalid = ~std::uint64_t{0};
  static constexpr std::uint64_t kRandSeed = 0x9e3779b97f4a7c15ull;

  /// The one lookup/replacement body. A demand access counts statistics
  /// and dirties the line on a store; a fill (`demand == false`) does not.
  CacheAccessResult lookup(std::uint64_t addr, bool is_store, bool demand);
  /// Way to replace in `set`, whose ways start at `base`.
  std::uint32_t choose_victim(std::size_t base, std::uint64_t set);

  CacheConfig config_;
  std::uint32_t ways_;
  std::uint32_t line_shift_;
  std::uint32_t set_shift_;
  std::uint64_t set_mask_;
  // sets * ways entries each, row-major by set.
  std::vector<std::uint64_t> tags_;  ///< line tag, or kInvalid
  std::vector<std::uint64_t> lru_;   ///< last-use stamp; 0 while invalid
  std::vector<std::uint8_t> dirty_;  ///< 1 = modified since the fill
  std::uint64_t lru_clock_ = 0;
  std::uint64_t loads_ = 0;
  std::uint64_t stores_ = 0;
  std::uint64_t load_misses_ = 0;
  std::uint64_t store_misses_ = 0;
  std::vector<std::uint32_t> rr_next_;  ///< round-robin pointer per set
  std::uint64_t rand_state_ = kRandSeed;  ///< xorshift64 state
};

/// Haswell-i5-4590-shaped cache geometry (per the thesis's test machine).
CacheConfig haswell_l1i();
CacheConfig haswell_l1d();
CacheConfig haswell_l2();
CacheConfig haswell_llc();

/// Miniature geometry for miniaturized sampling windows.
///
/// The collector simulates each 10 ms window with a few thousand retired
/// ops standing in for the ~30 M a real window retires. For cache behaviour
/// to reach the same steady state (capacity misses, dirty write-backs →
/// node-store traffic) at that scale, capacities are shrunk by a matching
/// factor while keeping the Haswell shape (associativity, 3 levels, line
/// size). See DESIGN.md "miniature machine" for the calibration argument.
CacheConfig miniature_l1i();
CacheConfig miniature_l1d();
CacheConfig miniature_l2();
CacheConfig miniature_llc();

}  // namespace hmd::hwsim
