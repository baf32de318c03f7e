// Synthesis report: the numbers Vivado HLS hands back — area, latency,
// power — for one compiled classifier (CompiledDesign::report()), at the
// 100 MHz target clock.
#pragma once

#include <cstdint>
#include <string>

#include "hw/resource.hpp"

namespace hmd::hw {

/// The hardware numbers for one classifier implementation.
struct SynthesisReport {
  std::string design_name;
  ResourceCost resources;
  std::uint32_t latency_cycles = 0;
  double clock_mhz = 100.0;
  double energy_per_inference_pj = 0.0;
  double static_power_mw = 0.0;
  double dynamic_power_mw = 0.0;

  double latency_us() const {
    return static_cast<double>(latency_cycles) / clock_mhz;
  }
  double area_slices() const { return resources.equivalent_slices(); }
  double total_power_mw() const { return static_power_mw + dynamic_power_mw; }

  /// Multi-line human-readable rendering.
  std::string to_string() const;
};

/// Fill the power fields of a report whose area/energy are already set:
/// static power scales with occupied area, dynamic with inference rate.
void finalize_power(SynthesisReport& report, double inferences_per_second);

}  // namespace hmd::hw
