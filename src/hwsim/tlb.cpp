#include "hwsim/tlb.hpp"

#include "util/error.hpp"

namespace hmd::hwsim {

Tlb::Tlb(TlbConfig config) : config_(config) {
  HMD_REQUIRE(config_.entries > 0, "TLB needs at least one entry");
  HMD_REQUIRE(config_.page_bits >= 10 && config_.page_bits <= 30,
              "page size out of range");
  flush();
}

bool Tlb::access(std::uint64_t addr) {
  ++accesses_;
  ++lru_clock_;
  const std::uint64_t vpn = addr >> config_.page_bits;

  if (vpns_[last_] != vpn) {
    const std::size_t n = vpns_.size();
    std::size_t i = 0;
    while (i < n && vpns_[i] != vpn) ++i;
    if (i == n) {
      // Miss: evict the oldest stamp. Free entries (stamp 0) go first;
      // stamps of valid entries are distinct, so this is true LRU.
      ++misses_;
      std::size_t victim = 0;
      for (std::size_t j = 1; j < n; ++j)
        if (lru_[j] < lru_[victim]) victim = j;
      vpns_[victim] = vpn;
      lru_[victim] = lru_clock_;
      last_ = victim;
      return false;
    }
    last_ = i;
  }
  lru_[last_] = lru_clock_;
  return true;
}

void Tlb::flush() {
  vpns_.assign(config_.entries, kEmpty);
  lru_.assign(config_.entries, 0);
  last_ = 0;
  lru_clock_ = 0;
}

double Tlb::miss_rate() const {
  return accesses_ == 0
             ? 0.0
             : static_cast<double>(misses_) / static_cast<double>(accesses_);
}

void Tlb::reset_stats() {
  accesses_ = 0;
  misses_ = 0;
}

}  // namespace hmd::hwsim
