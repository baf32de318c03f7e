// FPGA resource model.
//
// The thesis pushes each trained classifier through Xilinx Vivado HLS and
// compares the resulting area and latency (Figs. 14-16). This module is the
// cost side of our HLS-style estimator: a library of Q16.16 fixed-point
// datapath operators with LUT/FF/DSP/BRAM footprints and pipeline latencies
// shaped after 7-series synthesis results at a 100 MHz clock.
#pragma once

#include <cstdint>
#include <string_view>

namespace hmd::hw {

/// Aggregate FPGA resource usage.
struct ResourceCost {
  std::uint64_t luts = 0;
  std::uint64_t ffs = 0;
  std::uint64_t dsps = 0;
  std::uint64_t brams = 0;

  ResourceCost& operator+=(const ResourceCost& other);
  friend ResourceCost operator+(ResourceCost a, const ResourceCost& b) {
    a += b;
    return a;
  }
  ResourceCost scaled(std::uint64_t n) const;

  /// Slice-equivalent area: the scalar "area" number the paper's Fig. 14
  /// compares. DSPs and BRAMs are weighted by their slice-equivalent cost
  /// (a DSP48 ≈ 50 slices of logic if implemented in fabric; a BRAM36 ≈ 100).
  double equivalent_slices() const;
};

/// Datapath operator inventory (32-bit Q16.16 words unless noted).
enum class HwOp : std::uint8_t {
  kCompare,     ///< 32-bit magnitude comparator
  kAdd,         ///< 32-bit adder/subtractor
  kMul,         ///< 32x32 fixed-point multiplier (DSP-mapped)
  kMux2,        ///< 2:1 32-bit mux
  kAnd,         ///< wide AND reduction (rule conjunction)
  kSigmoidLut,  ///< BRAM-backed sigmoid/exp lookup
  kGaussianLut, ///< BRAM-backed log-density lookup (Naive Bayes)
  kArgmaxStage, ///< compare+select stage of an argmax tree
  kRegister,    ///< pipeline register stage
  kCount
};

std::string_view hw_op_name(HwOp op);

/// Per-instance resource cost of an operator.
ResourceCost hw_op_cost(HwOp op);

/// Pipeline latency of an operator, in cycles at the 100 MHz target clock.
std::uint32_t hw_op_latency(HwOp op);

/// Per-operation dynamic energy (pJ) at 100 MHz — drives the power model.
double hw_op_energy_pj(HwOp op);

}  // namespace hmd::hw
