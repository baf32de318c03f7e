#include "perf/collector.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "util/error.hpp"
#include "workload/sample_database.hpp"
#include "workload/sandbox.hpp"

namespace hmd::perf {
namespace {

using hwsim::HwEvent;

workload::Sandbox make_sandbox(std::uint64_t seed = 21) {
  workload::SampleRecord rec{.id = "t", .label = workload::AppClass::kVirus,
                             .seed = seed};
  return workload::Sandbox(rec, {.host_noise_frac = 0.0});
}

TEST(Collector, ProducesRequestedWindows) {
  HpcCollector collector({.ops_per_window = 500, .num_windows = 5});
  hwsim::Core core;
  auto sb = make_sandbox();
  const auto samples = collector.collect(core, sb);
  ASSERT_EQ(samples.size(), 5u);
  for (const auto& s : samples) EXPECT_EQ(s.counts.size(), 16u);
}

TEST(Collector, DefaultsToSixteenFeatureEvents) {
  HpcCollector collector;
  EXPECT_EQ(collector.events().size(), 16u);
}

TEST(Collector, InstructionCountsNearOpsPerWindow) {
  // The instructions event counts every retired op; after multiplex scaling
  // the estimate should be in the right ballpark.
  CollectorConfig cfg{.ops_per_window = 2000, .num_windows = 8,
                      .mux_scaling_sigma = 0.0};
  HpcCollector collector(cfg);
  hwsim::Core core;
  auto sb = make_sandbox();
  const auto samples = collector.collect(core, sb);
  // Individual windows can be skewed by multiplexing extrapolation (that is
  // the point of modelling it); the average must stay in the ballpark.
  double mean = 0.0;
  for (const auto& s : samples) mean += s.counts[0];  // instructions
  mean /= static_cast<double>(samples.size());
  EXPECT_NEAR(mean, 2000.0, 900.0);
}

TEST(Collector, IdealPmuCountsExactly) {
  CollectorConfig cfg{.ops_per_window = 1000, .num_windows = 4,
                      .ideal_pmu = true};
  HpcCollector collector(cfg);
  hwsim::Core core;
  auto sb = make_sandbox();
  const auto samples = collector.collect(core, sb);
  for (const auto& s : samples)
    EXPECT_DOUBLE_EQ(s.counts[0], 1000.0);  // exact instruction count
}

TEST(Collector, MultiplexedTracksIdealApproximately) {
  // Same workload measured multiplexed vs ideal. Per-window extrapolation
  // error is large for phase-bursty workloads (that is the phenomenon the
  // model exists to capture), so compare aggregates with a loose band.
  CollectorConfig ideal_cfg{.ops_per_window = 4000, .num_windows = 16,
                            .ideal_pmu = true};
  CollectorConfig mux_cfg{.ops_per_window = 4000, .num_windows = 16,
                          .mux_scaling_sigma = 0.0};
  hwsim::Core core;
  auto sb1 = make_sandbox(3);
  const auto ideal = HpcCollector(ideal_cfg).collect(core, sb1);
  auto sb2 = make_sandbox(3);
  const auto mux = HpcCollector(mux_cfg).collect(core, sb2);
  double ideal_instr = 0.0, mux_instr = 0.0;
  for (std::size_t w = 0; w < ideal.size(); ++w) {
    ideal_instr += ideal[w].counts[0];
    mux_instr += mux[w].counts[0];
  }
  EXPECT_NEAR(mux_instr / ideal_instr, 1.0, 0.4);
}

TEST(Collector, ScalingNoiseIsDeterministicInSeed) {
  CollectorConfig cfg{.ops_per_window = 1000, .num_windows = 3,
                      .mux_scaling_sigma = 0.2};
  HpcCollector collector(cfg);
  hwsim::Core core;
  auto sb1 = make_sandbox(5);
  const auto a = collector.collect(core, sb1, /*noise_seed=*/42);
  auto sb2 = make_sandbox(5);
  const auto b = collector.collect(core, sb2, /*noise_seed=*/42);
  for (std::size_t w = 0; w < a.size(); ++w)
    for (std::size_t i = 0; i < a[w].counts.size(); ++i)
      EXPECT_DOUBLE_EQ(a[w].counts[i], b[w].counts[i]);
}

TEST(Collector, DifferentNoiseSeedsDiffer) {
  CollectorConfig cfg{.ops_per_window = 1000, .num_windows = 3,
                      .mux_scaling_sigma = 0.2};
  HpcCollector collector(cfg);
  hwsim::Core core;
  auto sb1 = make_sandbox(5);
  const auto a = collector.collect(core, sb1, 1);
  auto sb2 = make_sandbox(5);
  const auto b = collector.collect(core, sb2, 2);
  bool any_diff = false;
  for (std::size_t w = 0; w < a.size(); ++w)
    for (std::size_t i = 0; i < a[w].counts.size(); ++i)
      any_diff |= a[w].counts[i] != b[w].counts[i];
  EXPECT_TRUE(any_diff);
}

TEST(Collector, ResetsCoreBetweenRuns) {
  HpcCollector collector({.ops_per_window = 500, .num_windows = 2});
  hwsim::Core core;
  auto sb1 = make_sandbox(9);
  collector.collect(core, sb1);
  const std::uint64_t cycles_after_first = core.cycles();
  auto sb2 = make_sandbox(9);
  collector.collect(core, sb2);
  EXPECT_EQ(core.cycles(), cycles_after_first);  // identical fresh run
}

TEST(Collector, CountsAreNonNegative) {
  HpcCollector collector({.ops_per_window = 800, .num_windows = 6});
  hwsim::Core core;
  auto sb = make_sandbox(13);
  for (const auto& s : collector.collect(core, sb))
    for (double c : s.counts) EXPECT_GE(c, 0.0);
}

TEST(Collector, RejectsBadConfig) {
  EXPECT_THROW(HpcCollector({.ops_per_window = 0}), hmd::PreconditionError);
  EXPECT_THROW(HpcCollector({.num_windows = 0}), hmd::PreconditionError);
  EXPECT_THROW(HpcCollector({.window_ms = 0.0}), hmd::PreconditionError);
}

TEST(Collector, MoreRotationsReduceExtrapolationError) {
  // With more rotations per window, each event samples more of the window,
  // so the scaled estimate of a uniformly-occurring event (instructions)
  // tightens around the truth.
  auto spread_for = [](std::size_t rotations) {
    CollectorConfig cfg{.ops_per_window = 4000, .num_windows = 12,
                        .mux_scaling_sigma = 0.0,
                        .rotations_per_window = rotations};
    HpcCollector collector(cfg);
    hwsim::Core core;
    auto sb = make_sandbox(17);
    double worst = 0.0;
    for (const auto& w : collector.collect(core, sb))
      worst = std::max(worst, std::abs(w.counts[0] - 4000.0));
    return worst;
  };
  EXPECT_LT(spread_for(8), spread_for(1));
}

TEST(Collector, RotationsPreserveTotalOpsPerWindow) {
  CollectorConfig cfg{.ops_per_window = 4000, .num_windows = 3,
                      .ideal_pmu = true, .rotations_per_window = 4};
  HpcCollector collector(cfg);
  hwsim::Core core;
  auto sb = make_sandbox(19);
  for (const auto& w : collector.collect(core, sb))
    EXPECT_DOUBLE_EQ(w.counts[0], 4000.0);
}

TEST(Collector, CustomEventListRespected) {
  CollectorConfig cfg;
  cfg.events = {HwEvent::kInstructions, HwEvent::kCycles};
  cfg.ops_per_window = 500;
  cfg.num_windows = 2;
  HpcCollector collector(cfg);
  hwsim::Core core;
  auto sb = make_sandbox();
  const auto samples = collector.collect(core, sb);
  EXPECT_EQ(samples.front().counts.size(), 2u);
}

// -- Golden fingerprint: FNV-1a over every number the simulator hands the
//    collector — multiplexed windows, ideal-PMU windows and all ground-truth
//    PMU counts — for a few records of the scaled Table 1 database on the
//    miniature hierarchy. Host-speed work on hwsim must leave the constant
//    unchanged; a changed simulated count anywhere changes it.

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 1099511628211ull;
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

TEST(Collector, GoldenFingerprintMiniatureCore) {
  const auto db = workload::SampleDatabase::generate(
      workload::DatabaseComposition::scaled(0.02), 2017);
  ASSERT_GE(db.size(), 5u);
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < db.size(); i += db.size() / 5) {
    const workload::SampleRecord& rec = db.samples()[i];
    for (bool ideal : {false, true}) {
      CollectorConfig cfg;
      cfg.ops_per_window = 1000;
      cfg.num_windows = 4;
      cfg.ideal_pmu = ideal;
      cfg.rotations_per_window = 2;
      const HpcCollector collector(cfg);
      hwsim::Core core(hwsim::CoreConfig{},
                       hwsim::MemoryHierarchy::miniature());
      workload::Sandbox sandbox(rec);
      for (const HpcSample& s :
           collector.collect(core, sandbox, rec.seed ^ 0xab5e11))
        for (double c : s.counts)
          h = fnv_mix(h, std::bit_cast<std::uint64_t>(c));
      for (std::size_t e = 0; e < hwsim::kNumEvents; ++e)
        h = fnv_mix(h, core.pmu().true_count(static_cast<HwEvent>(e)));
    }
  }
  EXPECT_EQ(h, 0x7c9ba8dda21406c5ull);
}

}  // namespace
}  // namespace hmd::perf
