#include "workload/behavior_profile.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "workload/app_class.hpp"

namespace hmd::workload {
namespace {

TEST(AppClass, NamesRoundTrip) {
  for (AppClass c : all_app_classes())
    EXPECT_EQ(app_class_from_name(app_class_name(c)), c);
}

TEST(AppClass, UnknownNameThrows) {
  EXPECT_THROW(app_class_from_name("ransomware"), ParseError);
}

TEST(AppClass, FiveMalwareFamilies) {
  EXPECT_EQ(malware_classes().size(), 5u);
  for (AppClass c : malware_classes()) EXPECT_TRUE(is_malware(c));
  EXPECT_FALSE(is_malware(AppClass::kBenign));
}

TEST(Archetypes, EveryClassHasPhases) {
  for (AppClass c : all_app_classes()) {
    const BehaviorProfile p = class_archetype(c);
    EXPECT_EQ(p.app_class, c);
    EXPECT_GE(p.phases.size(), 2u) << app_class_name(c);
  }
}

TEST(Archetypes, WeightsNormalize) {
  for (AppClass c : all_app_classes()) {
    const auto w = class_archetype(c).normalized_weights();
    double total = 0.0;
    for (double x : w) total += x;
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(Archetypes, BackdoorIsBranchyAndTiny) {
  const BehaviorProfile p = class_archetype(AppClass::kBackdoor);
  const PhaseParams& poll = p.phases.front();
  const BehaviorProfile b = class_archetype(AppClass::kBenign);
  const PhaseParams& benign = b.phases.front();
  EXPECT_GT(poll.branch_frac, benign.branch_frac);
  EXPECT_LT(poll.data_pages, benign.data_pages);
  EXPECT_GT(poll.branch_bias, 0.95);
}

TEST(Archetypes, RootkitHasLargeCodeAndPoorPredictability) {
  const BehaviorProfile p = class_archetype(AppClass::kRootkit);
  const PhaseParams& interpose = p.phases.front();
  EXPECT_GE(interpose.code_pages, 64u);
  EXPECT_LT(interpose.branch_bias, 0.7);
  EXPECT_GT(interpose.jump_spread, 0.3);
}

TEST(Archetypes, WormHasLargestWorkingSet) {
  const auto worm = class_archetype(AppClass::kWorm).phases.front();
  for (AppClass c : all_app_classes()) {
    if (c == AppClass::kWorm) continue;
    for (const PhaseParams& p : class_archetype(c).phases)
      EXPECT_GE(worm.data_pages, p.data_pages) << app_class_name(c);
  }
}

TEST(Archetypes, VirusIsStreamingReader) {
  const auto scan = class_archetype(AppClass::kVirus).phases.front();
  EXPECT_GT(scan.load_frac, 0.3);
  EXPECT_GT(scan.stream_frac, 0.8);
  EXPECT_LT(scan.store_frac, 0.1);
}

TEST(Sanitize, ClampsFractions) {
  PhaseParams p;
  p.load_frac = 1.5;
  p.store_frac = -0.2;
  p.hot_frac = 2.0;
  p.sanitize();
  EXPECT_LE(p.load_frac, 1.0);
  EXPECT_GE(p.store_frac, 0.0);
  EXPECT_LE(p.hot_frac, 1.0);
}

TEST(Sanitize, KeepsMixAValidDistribution) {
  PhaseParams p;
  p.load_frac = 0.6;
  p.store_frac = 0.6;
  p.branch_frac = 0.6;
  p.sanitize();
  EXPECT_LE(p.load_frac + p.store_frac + p.branch_frac, 0.96);
}

TEST(Sanitize, HotPagesNeverExceedDataPages) {
  PhaseParams p;
  p.data_pages = 4;
  p.hot_pages = 100;
  p.sanitize();
  EXPECT_LE(p.hot_pages, p.data_pages);
}

TEST(Instantiate, IsDeterministicInSeed) {
  Rng a(123), b(123);
  const BehaviorProfile pa = instantiate_sample_profile(AppClass::kVirus, a);
  const BehaviorProfile pb = instantiate_sample_profile(AppClass::kVirus, b);
  ASSERT_EQ(pa.phases.size(), pb.phases.size());
  for (std::size_t i = 0; i < pa.phases.size(); ++i) {
    EXPECT_DOUBLE_EQ(pa.phases[i].load_frac, pb.phases[i].load_frac);
    EXPECT_EQ(pa.phases[i].data_pages, pb.phases[i].data_pages);
  }
}

TEST(Instantiate, JitterVariesAcrossSeeds) {
  Rng a(1), b(2);
  const BehaviorProfile pa = instantiate_sample_profile(AppClass::kVirus, a);
  const BehaviorProfile pb = instantiate_sample_profile(AppClass::kVirus, b);
  EXPECT_NE(pa.phases.front().load_frac, pb.phases.front().load_frac);
}

TEST(Instantiate, StealthAddsFacadePhase) {
  Rng rng(5);
  int with_facade = 0;
  for (int i = 0; i < 200; ++i) {
    const BehaviorProfile p =
        instantiate_sample_profile(AppClass::kWorm, rng, 1.0);
    bool found = false;
    for (const auto& phase : p.phases)
      if (phase.name == "stealth-facade") found = true;
    with_facade += found;
  }
  EXPECT_EQ(with_facade, 200);
}

TEST(Instantiate, NoStealthWhenProbabilityZero) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const BehaviorProfile p =
        instantiate_sample_profile(AppClass::kTrojan, rng, 0.0);
    for (const auto& phase : p.phases)
      EXPECT_NE(phase.name, "stealth-facade");
  }
}

TEST(Instantiate, BenignNeverGetsStealthPhase) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    const BehaviorProfile p =
        instantiate_sample_profile(AppClass::kBenign, rng, 1.0);
    for (const auto& phase : p.phases)
      EXPECT_NE(phase.name, "stealth-facade");
  }
}

TEST(Instantiate, AllParamsRemainValid) {
  Rng rng(31);
  for (AppClass c : all_app_classes()) {
    for (int i = 0; i < 50; ++i) {
      const BehaviorProfile p = instantiate_sample_profile(c, rng);
      for (const PhaseParams& ph : p.phases) {
        EXPECT_GE(ph.load_frac, 0.0);
        EXPECT_LE(ph.load_frac + ph.store_frac + ph.branch_frac, 0.96);
        EXPECT_GE(ph.branch_bias, 0.0);
        EXPECT_LE(ph.branch_bias, 1.0);
        EXPECT_GE(ph.data_pages, 1u);
        EXPECT_LE(ph.hot_pages, ph.data_pages);
      }
    }
  }
}

}  // namespace
}  // namespace hmd::workload
