#include "hwsim/cache.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"

namespace hmd::hwsim {

std::uint64_t CacheConfig::num_sets() const {
  const std::uint64_t line_capacity = size_bytes / line_bytes;
  return line_capacity / ways;
}

void CacheConfig::validate() const {
  HMD_REQUIRE(size_bytes > 0, "cache size must be positive");
  HMD_REQUIRE(line_bytes > 0 && std::has_single_bit(line_bytes),
              "line size must be a power of two");
  HMD_REQUIRE(ways > 0, "associativity must be positive");
  HMD_REQUIRE(size_bytes % (static_cast<std::uint64_t>(line_bytes) * ways) == 0,
              "capacity must divide evenly into sets");
  HMD_REQUIRE(std::has_single_bit(num_sets()),
              "number of sets must be a power of two");
  HMD_REQUIRE(line_bytes * num_sets() >= 2,
              "a 1-byte line needs at least two sets");
}

Cache::Cache(CacheConfig config) : config_(std::move(config)) {
  config_.validate();
  const std::uint64_t sets = config_.num_sets();
  ways_ = config_.ways;
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(
      static_cast<std::uint64_t>(config_.line_bytes)));
  set_shift_ = static_cast<std::uint32_t>(std::countr_zero(sets));
  set_mask_ = sets - 1;
  tags_.resize(sets * ways_);
  lru_.resize(sets * ways_);
  dirty_.resize(sets * ways_);
  if (config_.policy == ReplacementPolicy::kRoundRobin)
    rr_next_.resize(sets);
  flush();
}

std::uint32_t Cache::choose_victim(std::size_t base, std::uint64_t set) {
  if (config_.policy == ReplacementPolicy::kLru) {
    // An invalid way's stamp is 0 and valid stamps are distinct and
    // positive, so the first smallest stamp is the first invalid way, or
    // else the least recently used one.
    const std::uint64_t* lru = &lru_[base];
    std::uint32_t victim = 0;
    std::uint64_t oldest = lru[0];
    for (std::uint32_t w = 1; w < ways_; ++w) {
      const bool older = lru[w] < oldest;
      victim = older ? w : victim;
      oldest = older ? lru[w] : oldest;
    }
    return victim;
  }

  // Invalid ways are always preferred, regardless of policy.
  const std::uint64_t* tags = &tags_[base];
  for (std::uint32_t w = 0; w < ways_; ++w)
    if (tags[w] == kInvalid) return w;
  if (config_.policy == ReplacementPolicy::kRoundRobin) {
    const std::uint32_t w = rr_next_[set];
    rr_next_[set] = (w + 1) % ways_;
    return w;
  }
  // kRandom — xorshift64: deterministic, stateful per cache instance.
  rand_state_ ^= rand_state_ << 13;
  rand_state_ ^= rand_state_ >> 7;
  rand_state_ ^= rand_state_ << 17;
  return static_cast<std::uint32_t>(rand_state_ % ways_);
}

CacheAccessResult Cache::lookup(std::uint64_t addr, bool is_store,
                                bool demand) {
  const std::uint64_t block = addr >> line_shift_;
  const std::uint64_t set = block & set_mask_;
  const std::uint64_t tag = block >> set_shift_;
  const std::size_t base = set * ways_;

  if (demand) {
    if (is_store)
      ++stores_;
    else
      ++loads_;
  }
  ++lru_clock_;

  const std::uint64_t* tags = &tags_[base];
  std::uint32_t hit = ways_;
  for (std::uint32_t w = 0; w < ways_; ++w) hit = tags[w] == tag ? w : hit;
  if (hit != ways_) {
    lru_[base + hit] = lru_clock_;
    dirty_[base + hit] |= static_cast<std::uint8_t>(is_store);
    return {.hit = true, .writeback = false};
  }

  if (demand) {
    if (is_store)
      ++store_misses_;
    else
      ++load_misses_;
  }
  // An invalid way is never dirty, so its eviction writes nothing back.
  const std::size_t victim = base + choose_victim(base, set);
  const bool writeback = dirty_[victim] != 0;
  tags_[victim] = tag;
  lru_[victim] = lru_clock_;
  dirty_[victim] = static_cast<std::uint8_t>(is_store);
  return {.hit = false, .writeback = writeback};
}

CacheAccessResult Cache::access(std::uint64_t addr, bool is_store) {
  return lookup(addr, is_store, /*demand=*/true);
}

CacheAccessResult Cache::fill(std::uint64_t addr) {
  return lookup(addr, /*is_store=*/false, /*demand=*/false);
}

void Cache::flush() {
  std::fill(tags_.begin(), tags_.end(), kInvalid);
  std::fill(lru_.begin(), lru_.end(), 0);
  std::fill(dirty_.begin(), dirty_.end(), 0);
  lru_clock_ = 0;
  std::fill(rr_next_.begin(), rr_next_.end(), 0);
  rand_state_ = kRandSeed;
}

double Cache::miss_rate() const {
  const std::uint64_t a = accesses();
  return a == 0 ? 0.0 : static_cast<double>(misses()) / static_cast<double>(a);
}

void Cache::reset_stats() {
  loads_ = stores_ = load_misses_ = store_misses_ = 0;
}

CacheConfig haswell_l1i() {
  return {.name = "L1I", .size_bytes = 32 * 1024, .ways = 8, .line_bytes = 64};
}

CacheConfig haswell_l1d() {
  return {.name = "L1D", .size_bytes = 32 * 1024, .ways = 8, .line_bytes = 64};
}

CacheConfig haswell_l2() {
  return {.name = "L2", .size_bytes = 256 * 1024, .ways = 8, .line_bytes = 64};
}

CacheConfig haswell_llc() {
  // i5-4590: 6 MiB shared LLC, 12-way. 12 ways keeps sets a power of two.
  return {.name = "LLC", .size_bytes = 6ull * 1024 * 1024, .ways = 12,
          .line_bytes = 64};
}

CacheConfig miniature_l1i() {
  return {.name = "L1I", .size_bytes = 16 * 1024, .ways = 8, .line_bytes = 64};
}

CacheConfig miniature_l1d() {
  return {.name = "L1D", .size_bytes = 16 * 1024, .ways = 8, .line_bytes = 64};
}

CacheConfig miniature_l2() {
  return {.name = "L2", .size_bytes = 64 * 1024, .ways = 8, .line_bytes = 64};
}

CacheConfig miniature_llc() {
  return {.name = "LLC", .size_bytes = 256 * 1024, .ways = 8,
          .line_bytes = 64};
}

}  // namespace hmd::hwsim
