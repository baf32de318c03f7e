// Area-latency design-space exploration.
//
// The thesis synthesizes each classifier once (fully parallel); a real HLS
// flow explores the allocation space. This module sweeps the shared
// multiplier/adder/comparator pools of a compiled netlist and returns the
// Pareto-optimal (area, latency) design points — the curve an implementer
// actually chooses from.
#pragma once

#include <cstdint>
#include <vector>

#include "hw/netlist.hpp"

namespace hmd::hw {

/// One explored design point.
struct DesignPoint {
  OperatorAllocation allocation;  ///< empty optionals = unbounded
  double area_slices = 0.0;
  std::uint32_t latency_cycles = 0;
  bool pareto_optimal = false;
};

/// Sweep operator allocations for `netlist`: the fully parallel design,
/// then pools of 1, 2, 4, 8, 16 and 32, each as a multiplier pool alone
/// and as matched multiplier/adder/comparator pools. All evaluated points
/// are returned, sorted by area, with Pareto-optimal ones marked.
std::vector<DesignPoint> explore_design_space(const Netlist& netlist);

/// Filter to the Pareto-optimal subset (sorted by area ascending).
std::vector<DesignPoint> pareto_front(std::vector<DesignPoint> points);

}  // namespace hmd::hw
