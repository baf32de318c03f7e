// Three-level cache hierarchy with TLBs, as on the thesis's Haswell i5-4590:
// split 32 KiB L1I/L1D, unified 256 KiB L2, shared 6 MiB LLC, and
// fully-associative i/d TLBs. Misses propagate level to level; dirty
// evictions generate write-back traffic that ultimately reaches the memory
// node (the paper's node-stores event).
#pragma once

#include <cstdint>

#include <optional>

#include "hwsim/cache.hpp"
#include "hwsim/prefetcher.hpp"
#include "hwsim/tlb.hpp"

namespace hmd::hwsim {

/// What happened on one instruction fetch or data access, expressed as the
/// counter increments the PMU needs plus a latency charge for the core.
struct AccessOutcome {
  bool l1_miss = false;
  bool l2_miss = false;
  bool llc_accessed = false;  ///< access reached the LLC
  bool llc_miss = false;      ///< ... and missed there (memory access)
  bool tlb_miss = false;
  std::uint32_t node_stores = 0;  ///< dirty lines written back to DRAM
  std::uint32_t prefetch_fills = 0;  ///< prefetch lines read from DRAM
  std::uint32_t latency_cycles = 0;
};

/// Latency model (cycles), roughly Haswell-shaped.
struct HierarchyLatencies {
  std::uint32_t l1_hit = 1;
  std::uint32_t l2_hit = 12;
  std::uint32_t llc_hit = 36;
  std::uint32_t memory = 180;
  std::uint32_t tlb_miss_walk = 30;
};

/// The full hierarchy. Not thread-safe; one instance per simulated core.
class MemoryHierarchy {
 public:
  MemoryHierarchy();
  MemoryHierarchy(CacheConfig l1i, CacheConfig l1d, CacheConfig l2,
                  CacheConfig llc, TlbConfig itlb, TlbConfig dtlb,
                  HierarchyLatencies latencies = {});

  /// Scaled-down geometry matched to miniaturized sampling windows (see
  /// miniature_llc() in cache.hpp). Used by the HPC collection pipeline.
  static MemoryHierarchy miniature();

  /// Instruction fetch at `pc`.
  AccessOutcome fetch(std::uint64_t pc);
  /// Data load at `addr` (`pc` trains the optional stride prefetcher).
  AccessOutcome load(std::uint64_t addr, std::uint64_t pc = 0);
  /// Data store at `addr`.
  AccessOutcome store(std::uint64_t addr);

  /// Drop all cached state, replacement and prefetcher state included
  /// (sandbox isolation between runs).
  void flush();

  /// Enable the stride prefetcher on the demand-load path (off by
  /// default). Prefetch fills install into L2/LLC without perturbing
  /// demand statistics; DRAM reads they cause are reported via
  /// AccessOutcome::prefetch_fills.
  void enable_prefetcher(PrefetcherConfig config = {});
  bool prefetcher_enabled() const { return prefetcher_.has_value(); }
  const StridePrefetcher* prefetcher() const {
    return prefetcher_.has_value() ? &*prefetcher_ : nullptr;
  }

  const Cache& l1i() const { return l1i_; }
  const Cache& l1d() const { return l1d_; }
  const Cache& l2() const { return l2_; }
  const Cache& llc() const { return llc_; }
  const Tlb& itlb() const { return itlb_; }
  const Tlb& dtlb() const { return dtlb_; }

 private:
  Cache l1i_;
  Cache l1d_;
  Cache l2_;
  Cache llc_;
  Tlb itlb_;
  Tlb dtlb_;
  HierarchyLatencies latencies_;
  std::optional<StridePrefetcher> prefetcher_;

  AccessOutcome through_shared_levels(std::uint64_t addr, bool is_store,
                                      bool l1_missed, bool tlb_missed);
};

}  // namespace hmd::hwsim
