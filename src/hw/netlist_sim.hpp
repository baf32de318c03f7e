// Cycle-accurate netlist interpreter: executes a CompiledDesign's nets in
// topological order (builder order IS topological order — operands must
// exist before use) over int64 Q16.16 raws, exactly as the emitted RTL
// datapath computes them. That datapath is fully parallel, so
// cycles_per_window() is the netlist's latency_cycles() — the latency
// CompiledDesign::report() quotes.
//
// run() quantizes float features onto the design's input grid first (the
// shared helpers in hw/netlist.hpp), which is what makes simulator class
// decisions bit-identical to hw/evaluate_fixed_point for exact schemes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hw/compile.hpp"

namespace hmd::hw {

class NetlistSimulator {
 public:
  /// `design` must outlive the simulator (nets and LUTs are referenced,
  /// not copied).
  explicit NetlistSimulator(const CompiledDesign& design);

  /// Execute one window of already-quantized port raws (one per feature,
  /// as quantize_input_raw produces). Returns the class_out label.
  std::size_t run_raw(std::span<const std::int64_t> inputs) const;

  /// Quantize float features onto the input grid, then run_raw. Extra
  /// trailing features beyond the port list are ignored.
  std::size_t run(std::span<const double> features) const;

  /// Registered pipeline depth of the fully parallel datapath:
  /// design.netlist().latency_cycles().
  std::uint32_t cycles_per_window() const { return cycles_per_window_; }

 private:
  const CompiledDesign* design_;
  std::uint32_t cycles_per_window_;
};

}  // namespace hmd::hw
