#include "hw/netlist_sim.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hmd::hw {

NetlistSimulator::NetlistSimulator(const CompiledDesign& design)
    : design_(&design),
      cycles_per_window_(design.netlist().latency_cycles()) {
  HMD_REQUIRE(design.netlist().has_output(),
              "NetlistSimulator: design has no output net");
}

std::size_t NetlistSimulator::run_raw(
    std::span<const std::int64_t> inputs) const {
  const Netlist& nl = design_->netlist();
  HMD_REQUIRE(inputs.size() >= nl.num_features(),
              "NetlistSimulator: input vector narrower than the port list");
  std::vector<std::int64_t> value(nl.num_nodes(), 0);
  for (NetId id = 0; id < nl.num_nodes(); ++id) {
    const NetNode& n = nl.node(id);
    switch (n.op) {
      case NetOp::kInput:
        value[id] = inputs[n.index];
        break;
      case NetOp::kConst:
        value[id] = n.value;
        break;
      case NetOp::kCmpLe:
        value[id] = value[n.args[0]] <= value[n.args[1]] ? 1 : 0;
        break;
      case NetOp::kCmpGt:
        value[id] = value[n.args[0]] > value[n.args[1]] ? 1 : 0;
        break;
      case NetOp::kMux:
        value[id] = value[n.args[0]] != 0 ? value[n.args[1]]
                                          : value[n.args[2]];
        break;
      case NetOp::kAdd:
        value[id] = value[n.args[0]] + value[n.args[1]];
        break;
      case NetOp::kMul: {
        // 128-bit intermediate, arithmetic shift — the RTL datapath keeps
        // the full product before the >> too.
        __extension__ typedef __int128 Wide;  // GCC/Clang extension
        const Wide product = static_cast<Wide>(value[n.args[0]]) *
                             static_cast<Wide>(value[n.args[1]]);
        value[id] = static_cast<std::int64_t>(product >> n.value);
        break;
      }
      case NetOp::kAndReduce: {
        std::int64_t all = 1;
        for (NetId a : n.args) all &= value[a] != 0 ? 1 : 0;
        value[id] = all;
        break;
      }
      case NetOp::kArgmax: {
        std::size_t best = 0;
        std::int64_t best_val = value[n.args[0]];
        for (std::size_t i = 1; i < n.args.size(); ++i) {
          if (value[n.args[i]] > best_val) {
            best_val = value[n.args[i]];
            best = i;
          }
        }
        value[id] = static_cast<std::int64_t>(best);
        break;
      }
      case NetOp::kLutRom: {
        const LutRom& rom = nl.luts()[n.index];
        std::int64_t idx =
            (value[n.args[0]] - rom.lo_raw) >> rom.step_shift;
        idx = std::clamp<std::int64_t>(
            idx, 0, static_cast<std::int64_t>(rom.values.size()) - 1);
        value[id] = rom.values[static_cast<std::size_t>(idx)];
        break;
      }
      case NetOp::kOutput:
        value[id] = value[n.args[0]];
        break;
      case NetOp::kCount:
        HMD_REQUIRE(false, "NetlistSimulator: invalid op");
    }
  }
  return static_cast<std::size_t>(value[nl.output()]);
}

std::size_t NetlistSimulator::run(std::span<const double> features) const {
  const std::vector<double>& scales = design_->feature_scales();
  HMD_REQUIRE(features.size() >= scales.size(),
              "NetlistSimulator: feature vector narrower than the port list");
  std::vector<std::int64_t> raws(scales.size());
  for (std::size_t f = 0; f < scales.size(); ++f)
    raws[f] = quantize_input_raw(features[f], scales[f]);
  return run_raw(raws);
}

}  // namespace hmd::hw
