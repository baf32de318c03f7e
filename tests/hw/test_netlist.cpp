#include "hw/netlist.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/error.hpp"
#include "util/fixed_point.hpp"
#include "util/rng.hpp"

namespace hmd::hw {
namespace {

// ---------------------------------------------------------------------------
// Q16.16 input-grid helpers.

TEST(NetlistGrid, RawRoundTripsThroughValue) {
  EXPECT_EQ(q16_raw(1.0), 65536);
  EXPECT_EQ(q16_raw(-0.5), -32768);
  EXPECT_DOUBLE_EQ(q16_value(65536), 1.0);
  EXPECT_DOUBLE_EQ(q16_value(q16_raw(3.25)), 3.25);
}

TEST(NetlistGrid, RawMatchesFixed16) {
  // The grid helpers and util/fixed_point.hpp must agree on the word.
  for (const double v : {0.0, 1.0, -2.75, 123.456, -0.0001})
    EXPECT_EQ(q16_raw(v), Fixed16::from_double(v).raw()) << v;
}

TEST(NetlistGrid, RawRejectsNonFinite) {
  EXPECT_THROW((void)q16_raw(std::nan("")), PreconditionError);
  EXPECT_THROW((void)q16_raw(1e300), PreconditionError);
}

TEST(NetlistGrid, InputScaleMatchesQuantizedModelRule) {
  // absmax <= 16000 passes through unscaled; larger magnitudes compress to
  // the ±16000 band; degenerate absmax clamps instead of dividing by zero.
  EXPECT_DOUBLE_EQ(q16_input_scale(100.0), 1.0);
  EXPECT_DOUBLE_EQ(q16_input_scale(16000.0), 1.0);
  EXPECT_DOUBLE_EQ(q16_input_scale(32000.0), 0.5);
  EXPECT_GT(q16_input_scale(0.0), 0.0);
  EXPECT_TRUE(std::isfinite(q16_input_scale(0.0)));
}

TEST(NetlistGrid, QuantizeInputIsTheRawOverTheScale) {
  const double scale = q16_input_scale(5e6);
  for (const double x : {0.0, 1e6, -3.7e6, 4.999e6}) {
    const std::int64_t raw = quantize_input_raw(x, scale);
    EXPECT_DOUBLE_EQ(quantize_input(x, scale), q16_value(raw) / scale) << x;
  }
}

TEST(NetlistGrid, ThresholdFloorEquivalenceIsExact) {
  // The property the whole tree/rule lowering rests on:
  //   raw <= threshold_raw(t, scale)  <=>  quantize_input(x, scale) <= t
  // for every x — including x exactly on / adjacent to the threshold.
  Rng rng(42);
  for (const double absmax : {1.0, 100.0, 5e6}) {
    const double scale = q16_input_scale(absmax);
    for (int trial = 0; trial < 2000; ++trial) {
      const double t = rng.uniform(-absmax, absmax);
      double x = rng.uniform(-absmax, absmax);
      if (trial % 4 == 0) x = t;  // exercise the boundary itself
      if (trial % 4 == 1) x = t + rng.normal(0.0, 1e-6 * absmax);
      const std::int64_t raw = quantize_input_raw(x, scale);
      const bool hw_le = raw <= threshold_raw(t, scale);
      const bool float_le = quantize_input(x, scale) <= t;
      ASSERT_EQ(hw_le, float_le)
          << "absmax=" << absmax << " t=" << t << " x=" << x;
    }
  }
}

// ---------------------------------------------------------------------------
// Builder validation: a Netlist that constructs is well-formed.

Netlist tiny() { return Netlist(2, 2); }

TEST(NetlistBuilder, InputValidatesFeatureIndex) {
  Netlist nl = tiny();
  EXPECT_NO_THROW((void)nl.input(1));
  EXPECT_THROW((void)nl.input(2), PreconditionError);
}

TEST(NetlistBuilder, CompareRequiresArithmeticOperands) {
  Netlist nl = tiny();
  const NetId a = nl.input(0);
  const NetId b = nl.constant(NetType::kQ16, q16_raw(1.0));
  const NetId bit = nl.cmp_le(a, b);
  EXPECT_EQ(nl.node(bit).type, NetType::kBit);
  // A bit net is not a valid compare operand.
  EXPECT_THROW((void)nl.cmp_gt(bit, b), PreconditionError);
  // Dangling operand ids are rejected.
  EXPECT_THROW((void)nl.cmp_le(a, static_cast<NetId>(99)), PreconditionError);
}

TEST(NetlistBuilder, MuxRequiresBitSelectAndMatchingArms) {
  Netlist nl = tiny();
  const NetId a = nl.input(0);
  const NetId t = nl.constant(NetType::kQ16, 0);
  const NetId sel = nl.cmp_gt(a, t);
  const NetId c0 = nl.class_constant(0);
  const NetId c1 = nl.class_constant(1);
  EXPECT_NO_THROW((void)nl.mux(sel, c1, c0));
  // Select must be a bit; arms must share a type.
  EXPECT_THROW((void)nl.mux(a, c1, c0), PreconditionError);
  EXPECT_THROW((void)nl.mux(sel, c1, a), PreconditionError);
}

TEST(NetlistBuilder, ClassConstantValidatesLabel) {
  Netlist nl = tiny();
  EXPECT_NO_THROW((void)nl.class_constant(1));
  EXPECT_THROW((void)nl.class_constant(2), PreconditionError);
}

TEST(NetlistBuilder, ArgmaxRejectsMoreScoresThanClasses) {
  Netlist nl(2, 3);
  std::vector<NetId> scores;
  for (int c = 0; c < 3; ++c)
    scores.push_back(nl.constant(NetType::kWide, c));
  EXPECT_NO_THROW((void)nl.argmax(scores));
  scores.push_back(nl.constant(NetType::kWide, 3));
  EXPECT_THROW((void)nl.argmax(scores), PreconditionError);
  EXPECT_THROW((void)nl.argmax({}), PreconditionError);
}

TEST(NetlistBuilder, OutputRequiresClassNetExactlyOnce) {
  Netlist nl = tiny();
  EXPECT_FALSE(nl.has_output());
  EXPECT_THROW((void)nl.output(), PreconditionError);
  const NetId score = nl.input(0);
  EXPECT_THROW(nl.set_output(score), PreconditionError);  // not kClass
  const NetId cls = nl.class_constant(0);
  nl.set_output(cls);
  EXPECT_TRUE(nl.has_output());
  EXPECT_THROW(nl.set_output(cls), PreconditionError);  // only once
}

TEST(NetlistBuilder, LutRomValidatesTableAndAddress) {
  Netlist nl = tiny();
  const NetId addr = nl.input(0);
  LutRom rom;
  rom.values.assign(256, 0);
  const std::uint32_t table = nl.add_lut(std::move(rom));
  const NetId out = nl.lut_rom(table, addr);
  EXPECT_EQ(nl.node(out).type, NetType::kWide);
  EXPECT_THROW((void)nl.lut_rom(table + 1, addr), PreconditionError);
  // ROM sizes must be a non-empty power of two (addressable by shift).
  LutRom bad;
  bad.values.assign(100, 0);
  EXPECT_THROW((void)nl.add_lut(std::move(bad)), PreconditionError);
}

TEST(NetlistBuilder, ClassBitsIsCeilLog2) {
  EXPECT_EQ(Netlist(1, 2).class_bits(), 1u);
  EXPECT_EQ(Netlist(1, 3).class_bits(), 2u);
  EXPECT_EQ(Netlist(1, 4).class_bits(), 2u);
  EXPECT_EQ(Netlist(1, 5).class_bits(), 3u);
}

// ---------------------------------------------------------------------------
// Cost / latency annotations.

TEST(NetlistCost, ReductionsPriceNMinusOneStagesAtLogDepth) {
  Netlist nl(1, 4);
  std::vector<NetId> scores;
  for (int c = 0; c < 4; ++c)
    scores.push_back(nl.constant(NetType::kWide, c));
  const NetId amax = nl.argmax(scores);
  const ResourceCost cost = nl.node_cost(amax);
  const ResourceCost one_stage = hw_op_cost(HwOp::kArgmaxStage);
  EXPECT_EQ(cost.luts, 3 * one_stage.luts);  // n-1 stages
  // Balanced tree: ceil(log2 4) = 2 levels of argmax stages.
  EXPECT_EQ(nl.node_latency(amax), 2u * hw_op_latency(HwOp::kArgmaxStage));
}

TEST(NetlistCost, TotalsSumTheInstantiatedNets) {
  Netlist nl = tiny();
  const NetId a = nl.input(0);
  const NetId t = nl.constant(NetType::kQ16, q16_raw(0.5));
  const NetId sel = nl.cmp_le(a, t);
  const NetId decision = nl.mux(sel, nl.class_constant(0),
                                nl.class_constant(1));
  nl.set_output(decision);
  const ResourceCost total = nl.total_resources();
  EXPECT_GT(total.luts + total.ffs, 0u);
  EXPECT_GT(nl.total_energy_pj(), 0.0);
  EXPECT_EQ(nl.count_ops(NetOp::kMux), 1u);
  EXPECT_EQ(nl.count_ops(NetOp::kCmpLe), 1u);
}

// ---------------------------------------------------------------------------
// Dataflow: latency_cycles() and total_resources() of the fully parallel
// datapath.

NetId weight(Netlist& nl) { return nl.constant(NetType::kWide, q16_raw(0.5)); }

/// `n` independent products of input 0.
Netlist parallel_muls(int n) {
  Netlist nl = tiny();
  const NetId x = nl.input(0);
  for (int i = 0; i < n; ++i) (void)nl.mul(x, weight(nl), 16);
  return nl;
}

TEST(Dataflow, InputsAreFree) {
  Netlist nl = tiny();
  (void)nl.input(0);
  (void)nl.input(1);
  EXPECT_EQ(nl.num_nodes(), 2u);
  EXPECT_EQ(nl.total_resources().luts, 0u);
  EXPECT_DOUBLE_EQ(nl.total_energy_pj(), 0.0);
  EXPECT_EQ(nl.latency_cycles(), 0u);
}

TEST(Dataflow, SingleOpLatency) {
  EXPECT_EQ(parallel_muls(1).latency_cycles(), hw_op_latency(HwOp::kMul));
}

TEST(Dataflow, ChainLatencyIsSum) {
  Netlist nl = tiny();
  const NetId x = nl.input(0);
  const NetId m = nl.mul(x, weight(nl), 16);  // 3 cycles
  const NetId a = nl.add(m, x);               // 1 cycle
  (void)nl.cmp_le(a, x);                      // 1 cycle
  EXPECT_EQ(nl.latency_cycles(), 5u);
}

TEST(Dataflow, ParallelOpsShareCriticalPath) {
  const Netlist nl = parallel_muls(16);
  // 16 parallel multiplies: still just one mul latency.
  EXPECT_EQ(nl.latency_cycles(), hw_op_latency(HwOp::kMul));
  EXPECT_EQ(nl.count_ops(NetOp::kMul), 16u);
}

TEST(Dataflow, ResourcesSumOverOps) {
  Netlist nl = parallel_muls(2);
  (void)nl.add(nl.input(0), nl.input(1));
  const ResourceCost total = nl.total_resources();
  EXPECT_EQ(total.dsps, 2 * hw_op_cost(HwOp::kMul).dsps);
  EXPECT_EQ(total.luts,
            2 * hw_op_cost(HwOp::kMul).luts + hw_op_cost(HwOp::kAdd).luts);
}

TEST(Dataflow, EnergySumsOverOps) {
  Netlist nl = parallel_muls(1);
  (void)nl.add(nl.input(0), nl.input(1));
  EXPECT_DOUBLE_EQ(nl.total_energy_pj(),
                   hw_op_energy_pj(HwOp::kMul) + hw_op_energy_pj(HwOp::kAdd));
}

TEST(Dataflow, UnknownDependencyThrows) {
  Netlist nl = tiny();
  const NetId x = nl.input(0);
  EXPECT_THROW((void)nl.add(x, static_cast<NetId>(42)), PreconditionError);
}

TEST(Dataflow, UnlimitedPoolsMatchAsap) {
  // One operator per net is the as-soon-as-possible schedule: the product
  // feeds the adder directly and through the ROM, and the adder waits for
  // the ROM arm.
  Netlist nl = tiny();
  LutRom rom;
  rom.values.assign(4, 0);
  const std::uint32_t table = nl.add_lut(std::move(rom));
  const NetId m = nl.mul(nl.input(0), weight(nl), 16);
  const NetId s = nl.lut_rom(table, m);
  (void)nl.cmp_gt(nl.add(s, m), m);
  EXPECT_EQ(nl.latency_cycles(), 3u + 2u + 1u + 1u);
}

}  // namespace
}  // namespace hmd::hw
