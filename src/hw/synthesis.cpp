#include "hw/synthesis.hpp"

#include <sstream>

namespace hmd::hw {

void finalize_power(SynthesisReport& report, double inferences_per_second) {
  report.static_power_mw = 0.015 * report.area_slices() / 10.0;
  report.dynamic_power_mw = report.energy_per_inference_pj * 1e-12 *
                            inferences_per_second * 1e3;
}

std::string SynthesisReport::to_string() const {
  std::ostringstream os;
  os << "design " << design_name << ": " << resources.luts << " LUT, "
     << resources.ffs << " FF, " << resources.dsps << " DSP, "
     << resources.brams << " BRAM (" << area_slices() << " slice-eq), "
     << latency_cycles << " cycles @ " << clock_mhz << " MHz ("
     << latency_us() << " us), " << total_power_mw() << " mW";
  return os.str();
}

}  // namespace hmd::hw
