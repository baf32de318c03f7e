#include "hw/pareto.hpp"

#include <algorithm>
#include <array>

namespace hmd::hw {

namespace {

constexpr std::array<std::uint32_t, 6> kPoolSizes = {1, 2, 4, 8, 16, 32};

DesignPoint evaluate(const Netlist& netlist, const OperatorAllocation& alloc) {
  return {.allocation = alloc,
          .area_slices = netlist.total_resources(alloc).equivalent_slices(),
          .latency_cycles = netlist.latency_cycles(alloc),
          .pareto_optimal = false};
}

void mark_pareto(std::vector<DesignPoint>& points) {
  for (DesignPoint& p : points) {
    p.pareto_optimal = true;
    for (const DesignPoint& q : points) {
      const bool dominates =
          (q.area_slices <= p.area_slices &&
           q.latency_cycles <= p.latency_cycles) &&
          (q.area_slices < p.area_slices ||
           q.latency_cycles < p.latency_cycles);
      if (dominates) {
        p.pareto_optimal = false;
        break;
      }
    }
  }
}

}  // namespace

std::vector<DesignPoint> explore_design_space(const Netlist& netlist) {
  std::vector<DesignPoint> points;

  // Fully parallel reference point.
  points.push_back(evaluate(netlist, {}));

  // Shared-multiplier sweeps (the dominant cost), alone and with matched
  // adder/comparator pools.
  for (std::uint32_t m : kPoolSizes) {
    points.push_back(evaluate(netlist, {.multipliers = m}));
    points.push_back(evaluate(
        netlist, {.multipliers = m, .adders = m, .comparators = m}));
  }

  std::sort(points.begin(), points.end(),
            [](const DesignPoint& a, const DesignPoint& b) {
              if (a.area_slices != b.area_slices)
                return a.area_slices < b.area_slices;
              return a.latency_cycles < b.latency_cycles;
            });
  // Deduplicate identical (area, latency) points.
  points.erase(std::unique(points.begin(), points.end(),
                           [](const DesignPoint& a, const DesignPoint& b) {
                             return a.area_slices == b.area_slices &&
                                    a.latency_cycles == b.latency_cycles;
                           }),
               points.end());
  mark_pareto(points);
  return points;
}

std::vector<DesignPoint> pareto_front(std::vector<DesignPoint> points) {
  mark_pareto(points);
  std::vector<DesignPoint> front;
  for (const DesignPoint& p : points)
    if (p.pareto_optimal) front.push_back(p);
  std::sort(front.begin(), front.end(),
            [](const DesignPoint& a, const DesignPoint& b) {
              return a.area_slices < b.area_slices;
            });
  return front;
}

}  // namespace hmd::hw
