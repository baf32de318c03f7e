#include "hw/netlist_sim.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/compile.hpp"
#include "hw/fixed_point_eval.hpp"
#include "ml/quantized.hpp"
#include "ml/registry.hpp"
#include "tests/ml/synthetic_data.hpp"
#include "util/error.hpp"

namespace hmd::hw {
namespace {

/// Non-owning shared_ptr over a stack classifier (aliasing-ctor idiom).
std::shared_ptr<const ml::Classifier> borrow(const ml::Classifier& clf) {
  return {std::shared_ptr<void>(), &clf};
}

/// The acceptance gate: for every instance of `data` the simulator's class
/// decision must be bit-identical to (a) the q16 serving tier / fixed-point
/// reference (ml::QuantizedModel kQ16Input over the same calibration —
/// exactly what hw::evaluate_fixed_point scores with) and (b) the C++
/// model's own predict() over the explicitly quantized feature vector.
void expect_three_way_identity(const std::string& scheme,
                               const ml::Dataset& data) {
  auto clf = ml::make_classifier(scheme);
  clf->train(data);

  const std::vector<double> absmax = calibrate_feature_absmax(data);
  CompileOptions opts;
  opts.num_features = data.num_features();
  opts.feature_absmax = absmax;
  const CompiledDesign design = compile(*clf, std::move(opts));
  NetlistSimulator sim(design);

  const ml::QuantizedModel q16(borrow(*clf),
                               ml::QuantizedModel::Mode::kQ16Input, absmax);
  const std::vector<double>& scales = design.feature_scales();
  ASSERT_EQ(scales.size(), data.num_features()) << scheme;

  for (std::size_t i = 0; i < data.num_instances(); ++i) {
    const auto row = data.features_of(i);
    std::vector<double> quantized(row.size());
    for (std::size_t f = 0; f < row.size(); ++f)
      quantized[f] = quantize_input(row[f], scales[f]);

    const std::size_t sim_pred = sim.run(row);
    const std::size_t q16_pred = q16.predict(row);
    const std::size_t model_pred = clf->predict(quantized);
    ASSERT_EQ(sim_pred, q16_pred)
        << scheme << ": simulator vs fixed-point reference, instance " << i;
    ASSERT_EQ(sim_pred, model_pred)
        << scheme << ": simulator vs model-on-quantized-grid, instance " << i;
  }
}

TEST(NetlistSim, ExactSchemesBitIdenticalOnBinaryData) {
  for (const std::string& scheme : ml::rtl_exact_schemes()) {
    SCOPED_TRACE(scheme);
    for (const std::uint64_t seed : {5u, 21u, 47u})
      expect_three_way_identity(scheme,
                                ml::testdata::separable_binary(80, seed));
  }
}

TEST(NetlistSim, ExactSchemesBitIdenticalOnOverlappingData) {
  // Overlapping classes put instances near the decision surface — the
  // regime where a mis-rounded threshold or weight would flip a decision.
  for (const std::string& scheme : ml::rtl_exact_schemes()) {
    SCOPED_TRACE(scheme);
    for (const std::uint64_t seed : {6u, 33u})
      expect_three_way_identity(scheme,
                                ml::testdata::overlapping_binary(120, seed));
  }
}

TEST(NetlistSim, ExactSchemesBitIdenticalOnMulticlassData) {
  for (const std::string& scheme : ml::rtl_exact_schemes()) {
    SCOPED_TRACE(scheme);
    for (const std::uint64_t seed : {8u, 91u})
      expect_three_way_identity(scheme, ml::testdata::three_class(60, seed));
  }
}

TEST(NetlistSim, ExactSchemesBitIdenticalOnLargeMagnitudeFeatures) {
  // HPC counter values reach 1e6+; the input grid's pre-scale must keep
  // the compiled thresholds and the float reference on the same grid.
  std::vector<ml::Attribute> attrs;
  attrs.emplace_back("big");
  attrs.emplace_back("small");
  attrs.emplace_back("class", std::vector<std::string>{"a", "b"});
  ml::Dataset d(std::move(attrs));
  Rng rng(13);
  for (int i = 0; i < 160; ++i) {
    const bool hi = i % 2 == 1;
    d.add({{(hi ? 5e6 : 1e6) + rng.normal(0.0, 1e5), rng.normal(0.0, 1e-3),
            hi ? 1.0 : 0.0}});
  }
  for (const std::string& scheme : ml::rtl_exact_schemes()) {
    SCOPED_TRACE(scheme);
    expect_three_way_identity(scheme, d);
  }
}

TEST(NetlistSim, LutSchemesTrackTheFloatModel) {
  // NaiveBayes / MLP lower through LUT-ROMs: faithful up to the ROM
  // quantization step, so decisions agree with the float model on nearly
  // every instance of a well-separated problem (measured, not bit-gated).
  const auto data = ml::testdata::three_class(80);
  const std::vector<double> absmax = calibrate_feature_absmax(data);
  for (const std::string& scheme : {"NaiveBayes", "MLP"}) {
    SCOPED_TRACE(scheme);
    auto clf = ml::make_classifier(scheme);
    clf->train(data);
    CompileOptions opts;
    opts.num_features = data.num_features();
    opts.feature_absmax = absmax;
    const CompiledDesign design = compile(*clf, std::move(opts));
    NetlistSimulator sim(design);
    std::size_t agree = 0;
    for (std::size_t i = 0; i < data.num_instances(); ++i)
      if (sim.run(data.features_of(i)) == clf->predict(data.features_of(i)))
        ++agree;
    const double rate =
        static_cast<double>(agree) /
        static_cast<double>(data.num_instances());
    EXPECT_GT(rate, 0.97) << scheme;
  }
}

TEST(NetlistSim, CyclesPerWindowIsPositiveAndSchemeDependent) {
  const auto data = ml::testdata::separable_binary(80);
  CompileOptions stump_opts;
  stump_opts.num_features = data.num_features();
  auto stump = ml::make_classifier("DecisionStump");
  stump->train(data);
  const CompiledDesign stump_design = compile(*stump, std::move(stump_opts));
  NetlistSimulator stump_sim(stump_design);
  EXPECT_GT(stump_sim.cycles_per_window(), 0u);

  CompileOptions mlr_opts;
  mlr_opts.num_features = data.num_features();
  auto mlr = ml::make_classifier("MLR");
  mlr->train(data);
  const CompiledDesign mlr_design = compile(*mlr, std::move(mlr_opts));
  NetlistSimulator mlr_sim(mlr_design);
  // A linear model's adder tree + multipliers run deeper than one compare.
  EXPECT_GT(mlr_sim.cycles_per_window(), stump_sim.cycles_per_window());
}

TEST(NetlistSim, RunRawMatchesRunOnTheQuantizedGrid) {
  const auto data = ml::testdata::single_feature_rule();
  auto clf = ml::make_classifier("OneR");
  clf->train(data);
  CompileOptions opts;
  opts.num_features = data.num_features();
  opts.feature_absmax = calibrate_feature_absmax(data);
  const CompiledDesign design = compile(*clf, std::move(opts));
  NetlistSimulator sim(design);
  const std::vector<double>& scales = design.feature_scales();
  for (std::size_t i = 0; i < 50; ++i) {
    const auto row = data.features_of(i);
    std::vector<std::int64_t> raws(row.size());
    for (std::size_t f = 0; f < row.size(); ++f)
      raws[f] = quantize_input_raw(row[f], scales[f]);
    EXPECT_EQ(sim.run_raw(raws), sim.run(row)) << "instance " << i;
  }
}

TEST(NetlistSim, RejectsShortFeatureVector) {
  const auto data = ml::testdata::separable_binary(60);
  auto clf = ml::make_classifier("SVM");
  clf->train(data);
  CompileOptions opts;
  opts.num_features = data.num_features();
  const CompiledDesign design = compile(*clf, std::move(opts));
  NetlistSimulator sim(design);
  const std::vector<double> short_row(data.num_features() - 1, 0.0);
  EXPECT_THROW((void)sim.run(short_row), PreconditionError);
}

}  // namespace
}  // namespace hmd::hw
