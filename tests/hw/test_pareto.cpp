#include "hw/pareto.hpp"

#include <gtest/gtest.h>

#include <string>

#include "hw/compile.hpp"
#include "ml/registry.hpp"
#include "tests/ml/synthetic_data.hpp"

namespace hmd::hw {
namespace {

std::vector<DesignPoint> explore_scheme(const std::string& scheme) {
  const auto d = ml::testdata::separable_binary();
  auto clf = ml::make_classifier(scheme);
  clf->train(d);
  return explore_design_space(
      compile(*clf, {.num_features = d.num_features()}).netlist());
}

std::vector<DesignPoint> explore_mlp() {
  static const std::vector<DesignPoint> points = explore_scheme("MLP");
  return points;
}

TEST(Pareto, ProducesMultiplePoints) {
  const auto points = explore_mlp();
  EXPECT_GE(points.size(), 5u);
}

TEST(Pareto, PointsSortedByArea) {
  const auto points = explore_mlp();
  for (std::size_t i = 1; i < points.size(); ++i)
    EXPECT_GE(points[i].area_slices, points[i - 1].area_slices);
}

TEST(Pareto, FrontIsMonotoneTradeoff) {
  const auto front = pareto_front(explore_mlp());
  ASSERT_GE(front.size(), 2u);
  // Along the front: more area must buy strictly less latency.
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_GT(front[i].area_slices, front[i - 1].area_slices);
    EXPECT_LT(front[i].latency_cycles, front[i - 1].latency_cycles);
  }
}

TEST(Pareto, NoFrontPointIsDominated) {
  const auto points = explore_mlp();
  const auto front = pareto_front(points);
  for (const auto& f : front) {
    for (const auto& p : points) {
      const bool dominates =
          p.area_slices <= f.area_slices &&
          p.latency_cycles <= f.latency_cycles &&
          (p.area_slices < f.area_slices ||
           p.latency_cycles < f.latency_cycles);
      EXPECT_FALSE(dominates);
    }
  }
}

TEST(Pareto, UnboundedPointHasLowestLatency) {
  const auto points = explore_mlp();
  std::uint32_t min_latency = ~0u;
  for (const auto& p : points)
    min_latency = std::min(min_latency, p.latency_cycles);
  // The fully-parallel design achieves the minimum latency.
  bool found = false;
  for (const auto& p : points) {
    if (!p.allocation.multipliers.has_value() &&
        p.latency_cycles == min_latency)
      found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Pareto, TinyClassifierCollapsesToOnePoint) {
  // A stump has no shared-pool pressure: every allocation gives the same
  // design, so the explored set collapses after deduplication.
  const auto points = explore_scheme("DecisionStump");
  EXPECT_LE(points.size(), 3u);
  EXPECT_TRUE(points.front().pareto_optimal);
}

}  // namespace
}  // namespace hmd::hw
