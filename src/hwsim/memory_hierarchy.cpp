#include "hwsim/memory_hierarchy.hpp"

namespace hmd::hwsim {

MemoryHierarchy::MemoryHierarchy()
    : MemoryHierarchy(haswell_l1i(), haswell_l1d(), haswell_l2(),
                      haswell_llc(), TlbConfig{.entries = 128},
                      TlbConfig{.entries = 64}) {}

MemoryHierarchy MemoryHierarchy::miniature() {
  return MemoryHierarchy(miniature_l1i(), miniature_l1d(), miniature_l2(),
                         miniature_llc(), TlbConfig{.entries = 64},
                         TlbConfig{.entries = 48});
}

MemoryHierarchy::MemoryHierarchy(CacheConfig l1i, CacheConfig l1d,
                                 CacheConfig l2, CacheConfig llc,
                                 TlbConfig itlb, TlbConfig dtlb,
                                 HierarchyLatencies latencies)
    : l1i_(std::move(l1i)),
      l1d_(std::move(l1d)),
      l2_(std::move(l2)),
      llc_(std::move(llc)),
      itlb_(itlb),
      dtlb_(dtlb),
      latencies_(latencies) {}

AccessOutcome MemoryHierarchy::through_shared_levels(std::uint64_t addr,
                                                     bool is_store,
                                                     bool l1_missed,
                                                     bool tlb_missed) {
  AccessOutcome out;
  out.l1_miss = l1_missed;
  out.tlb_miss = tlb_missed;
  out.latency_cycles = latencies_.l1_hit;
  if (tlb_missed) out.latency_cycles += latencies_.tlb_miss_walk;
  if (!l1_missed) return out;

  const CacheAccessResult l2_res = l2_.access(addr, is_store);
  if (l2_res.hit) {
    out.latency_cycles += latencies_.l2_hit;
    return out;
  }
  out.l2_miss = true;

  // L2 victim write-back lands in the LLC as a store.
  if (l2_res.writeback) {
    const CacheAccessResult wb = llc_.access(addr, /*is_store=*/true);
    if (wb.writeback) ++out.node_stores;
  }

  out.llc_accessed = true;
  const CacheAccessResult llc_res = llc_.access(addr, is_store);
  if (llc_res.writeback) ++out.node_stores;
  if (llc_res.hit) {
    out.latency_cycles += latencies_.llc_hit;
    return out;
  }
  out.llc_miss = true;
  out.latency_cycles += latencies_.memory;
  return out;
}

AccessOutcome MemoryHierarchy::fetch(std::uint64_t pc) {
  const bool tlb_hit = itlb_.access(pc);
  const CacheAccessResult l1 = l1i_.access(pc, /*is_store=*/false);
  return through_shared_levels(pc, /*is_store=*/false, !l1.hit, !tlb_hit);
}

AccessOutcome MemoryHierarchy::load(std::uint64_t addr, std::uint64_t pc) {
  const bool tlb_hit = dtlb_.access(addr);
  const CacheAccessResult l1 = l1d_.access(addr, /*is_store=*/false);
  AccessOutcome out =
      through_shared_levels(addr, /*is_store=*/false, !l1.hit, !tlb_hit);
  if (prefetcher_.has_value()) {
    for (std::uint64_t pf_addr : prefetcher_->observe(pc, addr)) {
      // Fill L2; on an LLC miss the line is read from DRAM.
      const CacheAccessResult l2_fill = l2_.fill(pf_addr);
      if (l2_fill.hit) continue;
      const CacheAccessResult llc_fill = llc_.fill(pf_addr);
      if (llc_fill.writeback) ++out.node_stores;
      if (!llc_fill.hit) ++out.prefetch_fills;
    }
  }
  return out;
}

void MemoryHierarchy::enable_prefetcher(PrefetcherConfig config) {
  prefetcher_.emplace(config);
}

AccessOutcome MemoryHierarchy::store(std::uint64_t addr) {
  const bool tlb_hit = dtlb_.access(addr);
  const CacheAccessResult l1 = l1d_.access(addr, /*is_store=*/true);
  AccessOutcome out =
      through_shared_levels(addr, /*is_store=*/true, !l1.hit, !tlb_hit);
  // An L1D dirty eviction is absorbed by the L2 in this model (no extra
  // event), matching how perf's node-stores only sees DRAM traffic.
  (void)l1.writeback;
  return out;
}

void MemoryHierarchy::flush() {
  l1i_.flush();
  l1d_.flush();
  l2_.flush();
  llc_.flush();
  itlb_.flush();
  dtlb_.flush();
  if (prefetcher_.has_value()) prefetcher_->reset();
}

}  // namespace hmd::hwsim
