#include "hwsim/pmu.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace hmd::hwsim {
namespace {

TEST(Pmu, GroundTruthAccumulates) {
  Pmu pmu;
  pmu.add(HwEvent::kInstructions, 5);
  pmu.add(HwEvent::kInstructions);
  EXPECT_EQ(pmu.true_count(HwEvent::kInstructions), 6u);
  EXPECT_EQ(pmu.true_count(HwEvent::kCacheMisses), 0u);
}

TEST(Pmu, ProgrammedRegisterCounts) {
  Pmu pmu;
  pmu.program(0, HwEvent::kBranchMisses);
  pmu.add(HwEvent::kBranchMisses, 3);
  EXPECT_EQ(pmu.read(0).value, 3u);
  pmu.add(HwEvent::kBranchMisses, 2);
  EXPECT_EQ(pmu.read(0).value, 5u);
}

TEST(Pmu, UnprogrammedEventNotCaptured) {
  Pmu pmu;
  pmu.program(0, HwEvent::kBranchMisses);
  pmu.add(HwEvent::kCacheMisses, 7);
  EXPECT_EQ(pmu.read(0).value, 0u);
  EXPECT_EQ(pmu.true_count(HwEvent::kCacheMisses), 7u);
}

TEST(Pmu, StoppedRegisterFreezes) {
  Pmu pmu;
  pmu.program(0, HwEvent::kInstructions);
  pmu.program(1, HwEvent::kInstructions);
  pmu.add(HwEvent::kInstructions, 2);
  pmu.stop(0);
  pmu.add(HwEvent::kInstructions, 10);
  pmu.stop(0);  // stopping again keeps the frozen value
  EXPECT_EQ(pmu.read(0).value, 2u);
  EXPECT_EQ(pmu.read(1).value, 12u);
  EXPECT_EQ(pmu.true_count(HwEvent::kInstructions), 12u);
}

TEST(Pmu, ReprogramClearsValue) {
  Pmu pmu;
  pmu.program(0, HwEvent::kInstructions);
  pmu.add(HwEvent::kInstructions, 9);
  pmu.program(0, HwEvent::kInstructions);
  EXPECT_EQ(pmu.read(0).value, 0u);
  pmu.add(HwEvent::kInstructions, 4);
  EXPECT_EQ(pmu.read(0).value, 4u);
  pmu.program(0, HwEvent::kCycles);
  pmu.add(HwEvent::kInstructions, 5);
  EXPECT_EQ(pmu.read(0).value, 0u);
}

TEST(Pmu, TimeAccruesOnlyWhileActive) {
  Pmu pmu;
  pmu.program(0, HwEvent::kCycles);
  pmu.advance_time(100);
  pmu.stop(0);
  pmu.advance_time(100);
  EXPECT_EQ(pmu.read(0).time_running_ns, 100u);
}

TEST(Pmu, MultipleRegistersSameEvent) {
  Pmu pmu;
  pmu.program(0, HwEvent::kCycles);
  pmu.program(1, HwEvent::kCycles);
  pmu.add(HwEvent::kCycles, 4);
  EXPECT_EQ(pmu.read(0).value, 4u);
  EXPECT_EQ(pmu.read(1).value, 4u);
}

TEST(Pmu, EightCountersAvailable) {
  Pmu pmu;
  for (std::size_t r = 0; r < Pmu::kNumCounters; ++r)
    pmu.program(r, static_cast<HwEvent>(r));
  EXPECT_EQ(Pmu::kNumCounters, 8u);  // Haswell i5-4590
  for (std::size_t r = 0; r < Pmu::kNumCounters; ++r)
    EXPECT_TRUE(pmu.is_active(r));
}

TEST(Pmu, SlotOutOfRangeThrows) {
  Pmu pmu;
  EXPECT_THROW(pmu.program(8, HwEvent::kCycles), hmd::PreconditionError);
  EXPECT_THROW((void)pmu.read(8), hmd::PreconditionError);
  EXPECT_THROW(pmu.stop(8), hmd::PreconditionError);
}

TEST(Pmu, ProgrammedEventQuery) {
  Pmu pmu;
  EXPECT_FALSE(pmu.programmed_event(0).has_value());
  pmu.program(0, HwEvent::kLlcLoads);
  EXPECT_EQ(pmu.programmed_event(0), HwEvent::kLlcLoads);
}

TEST(Pmu, ResetClearsEverything) {
  Pmu pmu;
  pmu.program(0, HwEvent::kInstructions);
  pmu.program(1, HwEvent::kCycles);
  pmu.add(HwEvent::kInstructions, 5);
  pmu.add(HwEvent::kCycles, 7);
  pmu.advance_time(10);
  pmu.reset();
  EXPECT_EQ(pmu.true_count(HwEvent::kInstructions), 0u);
  for (std::size_t slot : {0u, 1u}) {
    EXPECT_FALSE(pmu.is_active(slot));
    EXPECT_FALSE(pmu.programmed_event(slot).has_value());
    EXPECT_EQ(pmu.read(slot).value, 0u);
    EXPECT_EQ(pmu.read(slot).time_running_ns, 0u);
  }
  // Registers cleared by reset stay idle until programmed again.
  pmu.add(HwEvent::kInstructions, 3);
  EXPECT_EQ(pmu.read(0).value, 0u);
  pmu.program(0, HwEvent::kInstructions);
  pmu.add(HwEvent::kInstructions, 2);
  EXPECT_EQ(pmu.read(0).value, 2u);
}

}  // namespace
}  // namespace hmd::hwsim
