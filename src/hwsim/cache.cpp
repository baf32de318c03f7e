#include "hwsim/cache.hpp"

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
}

Cache::Cache(CacheConfig config) : config_(std::move(config)) {
  config_.validate();
  const std::uint64_t sets = config_.num_sets();
  set_mask_ = sets - 1;
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(
      static_cast<std::uint64_t>(config_.line_bytes)));
  lines_.resize(sets * config_.ways);
  if (config_.policy == ReplacementPolicy::kRoundRobin)
    rr_next_.assign(sets, 0);
}

Cache::Line* Cache::choose_victim(Line* set_lines, std::uint64_t set) {
  // Invalid ways are always preferred, regardless of policy.
  for (std::uint32_t w = 0; w < config_.ways; ++w)
    if (!set_lines[w].valid) return &set_lines[w];

  switch (config_.policy) {
    case ReplacementPolicy::kLru: {
      Line* victim = set_lines;
      for (std::uint32_t w = 1; w < config_.ways; ++w)
        if (set_lines[w].lru < victim->lru) victim = &set_lines[w];
      return victim;
    }
    case ReplacementPolicy::kRoundRobin: {
      const std::uint32_t w = rr_next_[set];
      rr_next_[set] = (w + 1) % config_.ways;
      return &set_lines[w];
    }
    case ReplacementPolicy::kRandom: {
      // xorshift64: deterministic, stateful per cache instance.
      rand_state_ ^= rand_state_ << 13;
      rand_state_ ^= rand_state_ >> 7;
      rand_state_ ^= rand_state_ << 17;
      return &set_lines[rand_state_ % config_.ways];
    }
  }
  return set_lines;
}

Cache::Line* Cache::set_begin(std::uint64_t set) {
  return &lines_[set * config_.ways];
}

CacheAccessResult Cache::access(std::uint64_t addr, bool is_store) {
  const std::uint64_t block = addr >> line_shift_;
  const std::uint64_t set = block & set_mask_;
  const std::uint64_t tag = block >> std::countr_zero(set_mask_ + 1);

  if (is_store)
    ++stores_;
  else
    ++loads_;

  Line* set_lines = set_begin(set);
  ++lru_clock_;
  // On LRU counter wrap, re-base the whole set ordering (rare).
  if (lru_clock_ == 0) {
    for (auto& l : lines_) l.lru = 0;
    lru_clock_ = 1;
  }

  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    Line& line = set_lines[w];
    if (line.valid && line.tag == tag) {
      line.lru = lru_clock_;
      if (is_store) line.dirty = true;
      return {.hit = true, .writeback = false};
    }
  }

  if (is_store)
    ++store_misses_;
  else
    ++load_misses_;

  Line* victim = choose_victim(set_lines, set);
  const bool writeback = victim->valid && victim->dirty;
  victim->valid = true;
  victim->tag = tag;
  victim->lru = lru_clock_;
  victim->dirty = is_store;
  return {.hit = false, .writeback = writeback};
}

CacheAccessResult Cache::fill(std::uint64_t addr) {
  // Same lookup/replacement as access(), but without statistics and
  // without dirtying the line.
  const std::uint64_t block = addr >> line_shift_;
  const std::uint64_t set = block & set_mask_;
  const std::uint64_t tag = block >> std::countr_zero(set_mask_ + 1);

  Line* set_lines = set_begin(set);
  ++lru_clock_;
  if (lru_clock_ == 0) {
    for (auto& l : lines_) l.lru = 0;
    lru_clock_ = 1;
  }
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    Line& line = set_lines[w];
    if (line.valid && line.tag == tag) {
      line.lru = lru_clock_;
      return {.hit = true, .writeback = false};
    }
  }
  Line* victim = choose_victim(set_lines, set);
  const bool writeback = victim->valid && victim->dirty;
  *victim = {.tag = tag, .lru = lru_clock_, .valid = true, .dirty = false};
  return {.hit = false, .writeback = writeback};
}

void Cache::flush() {
  for (auto& l : lines_) l = Line{};
  lru_clock_ = 0;
  rr_next_.assign(rr_next_.size(), 0);
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
