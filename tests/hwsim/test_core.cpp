#include "hwsim/core.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/sandbox.hpp"

namespace hmd::hwsim {
namespace {

MicroOp alu(std::uint64_t pc) { return {.kind = OpKind::kAlu, .pc = pc}; }
MicroOp load(std::uint64_t pc, std::uint64_t addr) {
  return {.kind = OpKind::kLoad, .pc = pc, .addr = addr};
}
MicroOp store(std::uint64_t pc, std::uint64_t addr) {
  return {.kind = OpKind::kStore, .pc = pc, .addr = addr};
}
MicroOp branch(std::uint64_t pc, std::uint64_t target, bool taken,
               bool conditional = true) {
  return {.kind = OpKind::kBranch, .pc = pc, .target = target,
          .conditional = conditional, .taken = taken};
}

TEST(Core, CountsInstructions) {
  Core core;
  for (int i = 0; i < 10; ++i) core.execute(alu(0x400000 + 4u * i));
  EXPECT_EQ(core.instructions(), 10u);
  EXPECT_EQ(core.pmu().true_count(HwEvent::kInstructions), 10u);
}

TEST(Core, CountsLoadsAndStores) {
  Core core;
  core.execute(load(0x400000, 0x1000));
  core.execute(store(0x400004, 0x2000));
  EXPECT_EQ(core.pmu().true_count(HwEvent::kL1DcacheLoads), 1u);
  EXPECT_EQ(core.pmu().true_count(HwEvent::kL1DcacheStores), 1u);
}

TEST(Core, ColdLoadCountsWholeMissChain) {
  Core core;
  core.execute(load(0x400000, 0x123450));
  const Pmu& pmu = core.pmu();
  EXPECT_EQ(pmu.true_count(HwEvent::kL1DcacheLoadMisses), 1u);
  EXPECT_EQ(pmu.true_count(HwEvent::kLlcLoadMisses), 1u);
  EXPECT_EQ(pmu.true_count(HwEvent::kNodeLoads), 2u);  // fetch fill + data
}

TEST(Core, BranchEventsCounted) {
  Core core;
  core.execute(branch(0x400000, 0x400100, true));
  EXPECT_EQ(core.pmu().true_count(HwEvent::kBranchInstructions), 1u);
  EXPECT_EQ(core.pmu().true_count(HwEvent::kBranchLoads), 1u);
}

TEST(Core, UnconditionalBranchIsNotABranchLoad) {
  Core core;
  core.execute(branch(0x400000, 0x400100, true, /*conditional=*/false));
  EXPECT_EQ(core.pmu().true_count(HwEvent::kBranchInstructions), 1u);
  EXPECT_EQ(core.pmu().true_count(HwEvent::kBranchLoads), 0u);
}

TEST(Core, PredictableLoopHasFewBranchMisses) {
  Core core;
  for (int i = 0; i < 2000; ++i)
    core.execute(branch(0x400000, 0x400000, true));
  EXPECT_LT(core.pmu().true_count(HwEvent::kBranchMisses), 20u);
}

TEST(Core, RandomBranchesMissOften) {
  Core core;
  hmd::Rng rng(11);
  for (int i = 0; i < 2000; ++i)
    core.execute(branch(0x400000, 0x400100, rng.bernoulli(0.5)));
  EXPECT_GT(core.pmu().true_count(HwEvent::kBranchMisses), 500u);
}

TEST(Core, CyclesAdvance) {
  Core core;
  core.execute(alu(0x400000));
  const std::uint64_t after_one = core.cycles();
  EXPECT_GT(after_one, 0u);
  core.execute(load(0x400004, 0x99999000));  // cold miss: big charge
  EXPECT_GT(core.cycles() - after_one, 100u);
}

TEST(Core, BusCyclesTrackCycleRatio) {
  Core core;
  for (int i = 0; i < 5000; ++i) core.execute(alu(0x400000 + 4u * (i % 16)));
  const auto cycles = core.pmu().true_count(HwEvent::kCycles);
  const auto bus = core.pmu().true_count(HwEvent::kBusCycles);
  EXPECT_NEAR(static_cast<double>(bus),
              static_cast<double>(cycles) / 33.0, 2.0);
}

TEST(Core, SequentialFetchTouchesICacheOncePerLine) {
  Core core;
  // 32 sequential ALU ops = 128 bytes = 2 fetch lines.
  for (int i = 0; i < 32; ++i) core.execute(alu(0x400000 + 4u * i));
  EXPECT_EQ(core.memory().l1i().accesses(), 2u);
}

TEST(Core, RejectsFetchLineThatIsNotAPowerOfTwo) {
  EXPECT_THROW(Core(CoreConfig{.fetch_line_bytes = 48}), PreconditionError);
  EXPECT_THROW(Core(CoreConfig{.fetch_line_bytes = 8}), PreconditionError);
  EXPECT_NO_THROW(Core(CoreConfig{.fetch_line_bytes = 32}));
}

TEST(Core, FetchLineWidthSetsFetchCount) {
  // 32 sequential ALU ops = 128 bytes = 4 fetch lines of 32 bytes.
  Core core(CoreConfig{.fetch_line_bytes = 32});
  for (int i = 0; i < 32; ++i) core.execute(alu(0x400000 + 4u * i));
  EXPECT_EQ(core.memory().l1i().accesses(), 4u);
}

TEST(Core, TakenBranchForcesRefetch) {
  Core core;
  core.execute(alu(0x400000));
  core.execute(branch(0x400004, 0x400000, true));
  core.execute(alu(0x400000));  // same line as first fetch, but refetched
  EXPECT_GE(core.memory().l1i().accesses(), 2u);
}

TEST(Core, IpcIsPositiveAndBounded) {
  Core core;
  for (int i = 0; i < 1000; ++i) core.execute(alu(0x400000 + 4u * (i % 8)));
  EXPECT_GT(core.ipc(), 0.1);
  EXPECT_LE(core.ipc(), 1.0);
}

TEST(Core, ElapsedTimeMatchesFrequency) {
  Core core(CoreConfig{.frequency_ghz = 2.0});
  for (int i = 0; i < 100; ++i) core.execute(alu(0x400000));
  EXPECT_NEAR(core.elapsed_ns(),
              static_cast<double>(core.cycles()) / 2.0, 1e-9);
}

TEST(Core, SyncPmuTimeAdvancesRegisters) {
  Core core;
  core.pmu().program(0, HwEvent::kInstructions);
  for (int i = 0; i < 100; ++i) core.execute(alu(0x400000 + 4u * i));
  core.sync_pmu_time();
  EXPECT_GT(core.pmu().read(0).time_running_ns, 0u);
}

TEST(Core, ResetRestoresColdState) {
  Core core;
  core.execute(load(0x400000, 0x5000));
  core.reset();
  EXPECT_EQ(core.cycles(), 0u);
  EXPECT_EQ(core.instructions(), 0u);
  EXPECT_EQ(core.pmu().true_count(HwEvent::kInstructions), 0u);
  // Caches cold again.
  core.execute(load(0x400000, 0x5000));
  EXPECT_EQ(core.pmu().true_count(HwEvent::kL1DcacheLoadMisses), 1u);
}

TEST(Core, ResetMatchesFreshCoreForEveryPolicy) {
  // A reset core must be indistinguishable from a new one: replacement
  // pointers, the xorshift victim state and the prefetcher's stride table
  // all count as microarchitectural state.
  auto hierarchy = [](ReplacementPolicy policy, bool prefetch) {
    auto with = [policy](CacheConfig c) {
      c.policy = policy;
      return c;
    };
    MemoryHierarchy memory(with(miniature_l1i()), with(miniature_l1d()),
                           with(miniature_l2()), with(miniature_llc()),
                           TlbConfig{.entries = 64}, TlbConfig{.entries = 48});
    if (prefetch) memory.enable_prefetcher();
    return memory;
  };
  // The same sandboxed stream, as the collector replays per sample.
  auto run = [](Core& core) {
    workload::SampleRecord rec;
    rec.label = workload::AppClass::kVirus;
    rec.seed = 4;
    workload::Sandbox sandbox(rec);
    for (int i = 0; i < 40000; ++i) core.execute(sandbox.next());
  };
  for (ReplacementPolicy policy :
       {ReplacementPolicy::kLru, ReplacementPolicy::kRoundRobin,
        ReplacementPolicy::kRandom}) {
    for (bool prefetch : {false, true}) {
      Core reused(CoreConfig{}, hierarchy(policy, prefetch));
      run(reused);
      reused.reset();
      run(reused);
      Core fresh(CoreConfig{}, hierarchy(policy, prefetch));
      run(fresh);
      if (prefetch) {
        EXPECT_EQ(reused.memory().prefetcher()->issued(),
                  fresh.memory().prefetcher()->issued())
            << "policy=" << static_cast<int>(policy);
      }
      for (std::size_t e = 0; e < kNumEvents; ++e) {
        const auto event = static_cast<HwEvent>(e);
        EXPECT_EQ(reused.pmu().true_count(event), fresh.pmu().true_count(event))
            << event_name(event) << " policy=" << static_cast<int>(policy)
            << " prefetch=" << prefetch;
      }
    }
  }
}

TEST(Core, StoreStreamProducesNodeStores) {
  Core core(CoreConfig{}, MemoryHierarchy::miniature());
  std::uint64_t addr = 0;
  for (int i = 0; i < 40000; ++i) {
    core.execute(store(0x400000, addr));
    addr += 64;
  }
  EXPECT_GT(core.pmu().true_count(HwEvent::kNodeStores), 100u);
}

TEST(Core, RejectsBadConfig) {
  EXPECT_THROW(Core(CoreConfig{.frequency_ghz = 0.0}),
               hmd::PreconditionError);
  EXPECT_THROW(Core(CoreConfig{.bus_ratio = 0}), hmd::PreconditionError);
}

}  // namespace
}  // namespace hmd::hwsim
