// The simulated core: retires MicroOps, charges a simple timing model, and
// feeds the PMU with every architectural event the paper's detector reads.
#pragma once

#include <cstdint>
#include <span>

#include "hwsim/branch_predictor.hpp"
#include "hwsim/memory_hierarchy.hpp"
#include "hwsim/micro_op.hpp"
#include "hwsim/pmu.hpp"

namespace hmd::hwsim {

/// Core timing parameters (Haswell-shaped; 3.3 GHz i5-4590).
struct CoreConfig {
  double frequency_ghz = 3.3;
  std::uint32_t branch_miss_penalty = 14;  ///< pipeline refill cycles
  std::uint32_t bus_ratio = 33;            ///< core cycles per bus cycle (100 MHz bus)
  /// Instruction fetches hit the L1I once per fetched line, not per op; a
  /// taken branch always refetches. A power of two, at least 16.
  std::uint32_t fetch_line_bytes = 64;
};

/// In-order retirement engine with structural cache/branch/TLB modeling.
///
/// Event mapping (perf(1) semantics on Haswell):
///   instructions            — every retired MicroOp
///   branch-instructions     — every kBranch
///   branch-loads            — conditional branches (BPU direction lookups)
///   branch-misses           — direction or BTB-target mispredictions
///   L1-dcache-loads/stores  — kLoad / kStore retirements
///   L1-dcache-load-misses   — L1D load misses
///   L1-icache-load-misses   — L1I fetch misses
///   LLC-loads / LLC-load-misses — demand loads reaching / missing the LLC
///   cache-references / cache-misses — all LLC accesses / misses
///   iTLB-load-misses        — iTLB walk on fetch
///   node-loads / node-stores — DRAM reads / dirty write-backs to DRAM
///   bus-cycles              — core cycles divided by the bus ratio
class Core {
 public:
  explicit Core(CoreConfig config = {});
  /// Core with an explicit memory hierarchy (e.g.
  /// MemoryHierarchy::miniature() for the collection pipeline).
  Core(CoreConfig config, MemoryHierarchy memory);

  /// Retire one instruction.
  void execute(const MicroOp& op);
  /// Retire a stream.
  void execute(std::span<const MicroOp> ops);

  /// Advances PMU time by the cycles elapsed since the previous sync, at
  /// the configured core frequency. Collectors call this at sample edges.
  void sync_pmu_time();

  Pmu& pmu() { return pmu_; }
  const Pmu& pmu() const { return pmu_; }
  MemoryHierarchy& memory() { return memory_; }
  const MemoryHierarchy& memory() const { return memory_; }
  BranchPredictor& branch_predictor() { return predictor_; }

  std::uint64_t cycles() const { return cycles_; }
  std::uint64_t instructions() const { return instructions_; }
  double ipc() const;
  /// Nanoseconds of simulated execution so far.
  double elapsed_ns() const;

  /// Full microarchitectural reset (between sandboxed runs).
  void reset();

 private:
  CoreConfig config_;
  MemoryHierarchy memory_;
  BranchPredictor predictor_;
  Pmu pmu_;
  std::uint64_t cycles_ = 0;
  std::uint64_t instructions_ = 0;
  std::uint64_t last_synced_cycles_ = 0;
  std::uint64_t last_fetch_line_ = ~std::uint64_t{0};
  std::uint64_t bus_cycle_remainder_ = 0;
  unsigned fetch_line_shift_ = 0;  ///< log2(config_.fetch_line_bytes)

  enum class MemAccessKind { kInstructionFetch, kDataLoad, kDataStore };

  void charge_cycles(std::uint64_t cycles);
  void account_memory_outcome(const AccessOutcome& out, MemAccessKind kind);
};

}  // namespace hmd::hwsim
