#include "hw/compile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "hw/fixed_point_eval.hpp"
#include "hw/netlist_sim.hpp"
#include "ml/decision_stump.hpp"
#include "ml/j48.hpp"
#include "ml/jrip.hpp"
#include "ml/knn.hpp"
#include "ml/mlp.hpp"
#include "ml/naive_bayes.hpp"
#include "ml/one_r.hpp"
#include "ml/registry.hpp"
#include "ml/serialization.hpp"
#include "tests/ml/synthetic_data.hpp"
#include "util/error.hpp"

namespace hmd::hw {
namespace {

TEST(Compile, SupportedSetAgreesWithTheRegistry) {
  // hw::compile()'s lowering table and ml::rtl_schemes() are two views of
  // the same contract; every scheme must land on the same side of both.
  const auto data = ml::testdata::separable_binary(60);
  for (const std::string& scheme : ml::known_schemes()) {
    auto clf = ml::make_classifier(scheme);
    clf->train(data);
    CompileOptions opts;
    opts.num_features = data.num_features();
    EXPECT_EQ(try_compile(*clf, std::move(opts)).ok(),
              ml::is_rtl_scheme(scheme))
        << scheme;
  }
}

/// Forwards name() to a real scheme but not unwrap(): the object is not
/// the type its name promises.
class NameOnlyDecorator final : public ml::Classifier {
 public:
  explicit NameOnlyDecorator(std::unique_ptr<ml::Classifier> inner)
      : inner_(std::move(inner)) {}
  void train(const ml::DatasetView& data) override { inner_->train(data); }
  std::size_t predict(std::span<const double> features) const override {
    return inner_->predict(features);
  }
  std::string name() const override { return inner_->name(); }
  std::size_t num_classes() const override { return inner_->num_classes(); }

 private:
  std::unique_ptr<ml::Classifier> inner_;
};

TEST(Compile, NameMatchingWrongTypeIsAPreconditionError) {
  NameOnlyDecorator clf(ml::make_classifier("J48"));
  clf.train(ml::testdata::separable_binary(60));
  CompileOptions opts;
  opts.num_features = 4;
  const auto result = try_compile(clf, std::move(opts));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrCode::kPrecondition);
  std::ostringstream out;
  EXPECT_THROW(ml::save_model(out, clf), PreconditionError);
}

TEST(Compile, TryCompileNamesTheUnsupportedScheme) {
  const auto data = ml::testdata::separable_binary(60);
  for (const std::string& scheme : {"ZeroR", "IBk", "AdaBoostM1"}) {
    auto clf = ml::make_classifier(scheme);
    clf->train(data);
    CompileOptions opts;
    opts.num_features = data.num_features();
    const auto result = try_compile(*clf, std::move(opts));
    ASSERT_FALSE(result.ok()) << scheme;
    EXPECT_EQ(result.error().code(), ErrCode::kPrecondition) << scheme;
    EXPECT_NE(result.error().message().find("no netlist lowering"),
              std::string::npos)
        << scheme << ": " << result.error().message();
  }
}

TEST(Compile, CompileThrowsWhereTryCompileReturns) {
  auto clf = ml::make_classifier("ZeroR");
  clf->train(ml::testdata::separable_binary(60));
  CompileOptions opts;
  opts.num_features = 4;
  EXPECT_THROW((void)compile(*clf, std::move(opts)), PreconditionError);
}

TEST(Compile, RejectsBadOptions) {
  const auto data = ml::testdata::separable_binary(60);
  auto clf = ml::make_classifier("J48");
  clf->train(data);
  {
    CompileOptions opts;  // num_features missing
    const auto result = try_compile(*clf, std::move(opts));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code(), ErrCode::kPrecondition);
  }
  {
    CompileOptions opts;
    opts.num_features = data.num_features();
    opts.feature_absmax = {1.0};  // wrong arity for the port list
    EXPECT_FALSE(try_compile(*clf, std::move(opts)).ok());
  }
  // Non-finite calibration would silently give a port scale of 1 (NaN) or
  // 0 (+inf, every raw and threshold folds to 0).
  for (const double bad : {std::nan(""), std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    CompileOptions opts;
    opts.num_features = data.num_features();
    opts.feature_absmax.assign(data.num_features(), 1.0);
    opts.feature_absmax[1] = bad;
    const auto result = try_compile(*clf, std::move(opts));
    ASSERT_FALSE(result.ok()) << bad;
    EXPECT_EQ(result.error().code(), ErrCode::kPrecondition);
    EXPECT_NE(result.error().message().find("feature_absmax"),
              std::string::npos)
        << result.error().message();
  }
  // A non-positive or NaN rate would report negative or NaN power.
  for (const double bad : {0.0, -100.0, std::nan(""),
                           std::numeric_limits<double>::infinity()}) {
    CompileOptions opts;
    opts.num_features = data.num_features();
    opts.inferences_per_second = bad;
    const auto result = try_compile(*clf, std::move(opts));
    ASSERT_FALSE(result.ok()) << bad;
    EXPECT_EQ(result.error().code(), ErrCode::kPrecondition);
    EXPECT_NE(result.error().message().find("inferences_per_second"),
              std::string::npos)
        << result.error().message();
  }
}

TEST(Compile, RejectsUntrainedModel) {
  auto clf = ml::make_classifier("MLR");
  CompileOptions opts;
  opts.num_features = 4;
  EXPECT_FALSE(try_compile(*clf, std::move(opts)).ok());
}

TEST(Compile, AllRtlSchemesLowerToAWellFormedNetlist) {
  const auto data = ml::testdata::three_class(60);
  for (const std::string& scheme : ml::rtl_schemes()) {
    SCOPED_TRACE(scheme);
    auto clf = ml::make_classifier(scheme);
    clf->train(data);
    CompileOptions opts;
    opts.num_features = data.num_features();
    const CompiledDesign design = compile(*clf, std::move(opts));
    EXPECT_EQ(design.scheme(), scheme);
    EXPECT_EQ(design.num_features(), data.num_features());
    EXPECT_EQ(design.num_classes(), data.num_classes());
    EXPECT_TRUE(design.netlist().has_output());
    EXPECT_GT(design.netlist().num_nodes(), 0u);
    EXPECT_EQ(design.feature_scales().size(), data.num_features());
  }
}

TEST(Compile, ModelDerivedAbsmaxIsDeterministic) {
  // The fpga serving tier compiles per shard; identical models must yield
  // identical grids or verdicts would depend on the shard count.
  const auto data = ml::testdata::separable_binary(80);
  auto clf = ml::make_classifier("SVM");
  clf->train(data);
  const auto a = model_feature_absmax(*clf, data.num_features());
  const auto b = model_feature_absmax(*clf, data.num_features());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), data.num_features());
  for (const double v : a) EXPECT_GT(v, 0.0);
}

TEST(Compile, ReportQuotesMeasuredNetlistNumbers) {
  const auto data = ml::testdata::separable_binary(80);
  auto clf = ml::make_classifier("MLR");
  clf->train(data);
  CompileOptions opts;
  opts.num_features = data.num_features();
  opts.clock_mhz = 100.0;
  const CompiledDesign design = compile(*clf, std::move(opts));
  const SynthesisReport report = design.report();
  EXPECT_EQ(report.design_name, "MLR");
  const ResourceCost total = design.netlist().total_resources();
  EXPECT_EQ(report.resources.luts, total.luts);
  EXPECT_EQ(report.resources.dsps, total.dsps);
  EXPECT_GT(report.latency_cycles, 0u);
  EXPECT_GT(report.energy_per_inference_pj, 0.0);
  EXPECT_GT(report.static_power_mw + report.dynamic_power_mw, 0.0);
}

TEST(Compile, DatasetPinnedGridMatchesCalibration) {
  const auto data = ml::testdata::separable_binary(60);
  auto clf = ml::make_classifier("DecisionStump");
  clf->train(data);
  const std::vector<double> absmax = calibrate_feature_absmax(data);
  CompileOptions opts;
  opts.num_features = data.num_features();
  opts.feature_absmax = absmax;
  const CompiledDesign design = compile(*clf, std::move(opts));
  ASSERT_EQ(design.feature_absmax(), absmax);
  for (std::size_t f = 0; f < absmax.size(); ++f)
    EXPECT_DOUBLE_EQ(design.feature_scales()[f], q16_input_scale(absmax[f]));
}

/// The priced cost of one compiled design.
struct GoldenCost {
  std::uint64_t luts, ffs, dsps, brams;
  std::uint32_t latency_cycles;
  double energy_pj;
  bool operator==(const GoldenCost&) const = default;
};

std::ostream& operator<<(std::ostream& os, const GoldenCost& c) {
  return os << "{" << c.luts << ", " << c.ffs << ", " << c.dsps << ", "
            << c.brams << ", " << c.latency_cycles << ", "
            << std::setprecision(17) << c.energy_pj << "}";
}

TEST(Compile, GoldenCostPerScheme) {
  // Pins every area, cycle and pJ figure of the fixed fixtures, so a change
  // to the pricing code cannot drift them unnoticed. Keyed by scheme and
  // class count.
  const std::map<std::pair<std::string, std::size_t>, GoldenCost> expected = {
      {{"OneR", 2}, {32, 41, 0, 0, 3, 1.5}},
      {{"DecisionStump", 2}, {32, 41, 0, 0, 3, 1.5}},
      {{"J48", 2}, {32, 41, 0, 0, 3, 1.5}},
      {{"JRip", 2}, {84, 52, 0, 0, 4, 3.5999999999999996}},
      {{"NaiveBayes", 2}, {484, 577, 0, 8, 7, 31.099999999999994}},
      {{"MLR", 2}, {612, 833, 24, 0, 8, 63.100000000000009}},
      {{"SVM", 2}, {612, 833, 24, 0, 8, 63.100000000000009}},
      {{"MLP", 2}, {1404, 1889, 54, 3, 15, 147.59999999999999}},
      {{"OneR", 3}, {64, 50, 0, 0, 4, 2.6000000000000001}},
      {{"DecisionStump", 3}, {32, 41, 0, 0, 3, 1.5}},
      {{"J48", 3}, {128, 68, 0, 0, 5, 4.7999999999999998}},
      {{"JRip", 3}, {136, 63, 0, 0, 6, 5.7000000000000002}},
      {{"NaiveBayes", 3}, {912, 1058, 0, 15, 8, 58.100000000000023}},
      {{"MLR", 3}, {1152, 1538, 45, 0, 9, 118.10000000000005}},
      {{"SVM", 3}, {1152, 1538, 45, 0, 9, 118.10000000000005}},
      {{"MLP", 3}, {2472, 3298, 96, 4, 17, 258.99999999999983}},
  };
  const ml::Dataset fixtures[] = {ml::testdata::separable_binary(80),
                                  ml::testdata::three_class(60)};
  for (const ml::Dataset& data : fixtures) {
    for (const std::string& scheme : ml::rtl_schemes()) {
      auto clf = ml::make_classifier(scheme);
      clf->train(data);
      const Netlist nl =
          compile(*clf, {.num_features = data.num_features()}).netlist();
      const ResourceCost r = nl.total_resources();
      const GoldenCost got{r.luts, r.ffs, r.dsps, r.brams,
                           nl.latency_cycles(), nl.total_energy_pj()};
      const auto key = std::make_pair(scheme, data.num_classes());
      ASSERT_TRUE(expected.count(key))
          << "unpinned " << scheme << "/" << data.num_classes() << ": " << got;
      EXPECT_EQ(got, expected.at(key))
          << scheme << "/" << data.num_classes() << ": re-pin with " << got;
    }
  }
}

/// Longest chain of nets, each registered node_latency() cycles after its
/// slowest operand — the fully parallel latency, computed without
/// Netlist::latency_cycles().
std::uint32_t naive_critical_path(const Netlist& nl) {
  std::vector<std::uint32_t> done(nl.num_nodes(), 0);
  std::uint32_t longest = 0;
  for (NetId id = 0; id < nl.num_nodes(); ++id) {
    std::uint32_t start = 0;
    for (NetId a : nl.node(id).args) start = std::max(start, done[a]);
    done[id] = start + nl.node_latency(id);
    longest = std::max(longest, done[id]);
  }
  return longest;
}

TEST(Compile, LatencyIsTheCriticalPathForEveryScheme) {
  const ml::Dataset fixtures[] = {ml::testdata::separable_binary(80),
                                  ml::testdata::three_class(60)};
  for (const ml::Dataset& data : fixtures) {
    for (const std::string& scheme : ml::rtl_schemes()) {
      SCOPED_TRACE(scheme + ", " + std::to_string(data.num_classes()) +
                   " classes");
      auto clf = ml::make_classifier(scheme);
      clf->train(data);
      const CompiledDesign design =
          compile(*clf, {.num_features = data.num_features()});
      const std::uint32_t latency = design.netlist().latency_cycles();
      EXPECT_EQ(latency, naive_critical_path(design.netlist()));
      EXPECT_EQ(latency, design.report().latency_cycles);
      EXPECT_EQ(latency, NetlistSimulator(design).cycles_per_window());
    }
  }
}

// ---------------------------------------------------------------------------
// Per-scheme netlist shapes.

/// Fully parallel netlist of `clf` over `num_features` ports.
Netlist lower(const ml::Classifier& clf, std::size_t num_features) {
  return compile(clf, {.num_features = num_features}).netlist();
}

std::size_t comparators(const Netlist& nl) {
  return nl.count_ops(NetOp::kCmpLe) + nl.count_ops(NetOp::kCmpGt);
}

TEST(Lowering, OneRIsTiny) {
  ml::OneR model;
  const auto d = ml::testdata::separable_binary();
  model.train(d);
  const Netlist nl = lower(model, d.num_features());
  EXPECT_EQ(nl.count_ops(NetOp::kMul), 0u);
  EXPECT_LE(nl.total_resources().equivalent_slices(), 200.0);
}

TEST(Lowering, StumpIsOneComparator) {
  ml::DecisionStump model;
  const auto d = ml::testdata::separable_binary();
  model.train(d);
  const Netlist nl = lower(model, d.num_features());
  EXPECT_EQ(comparators(nl), 1u);
  EXPECT_EQ(nl.count_ops(NetOp::kMux), 1u);
}

TEST(Lowering, J48ComparatorPerInternalNode) {
  ml::J48 model;
  const auto d = ml::testdata::separable_binary();
  model.train(d);
  const Netlist nl = lower(model, d.num_features());
  EXPECT_EQ(comparators(nl), model.num_nodes() - model.num_leaves());
  EXPECT_EQ(nl.count_ops(NetOp::kMux), model.num_nodes() - model.num_leaves());
}

TEST(Lowering, DeeperTreeHasHigherLatency) {
  const auto d = ml::testdata::overlapping_binary(400);
  ml::J48 shallow({.min_leaf = 2, .max_depth = 2, .prune = false});
  ml::J48 deep({.min_leaf = 2, .max_depth = 12, .prune = false});
  shallow.train(d);
  deep.train(d);
  ASSERT_GT(deep.depth(), shallow.depth());
  EXPECT_LT(lower(shallow, 4).latency_cycles(), lower(deep, 4).latency_cycles());
}

TEST(Lowering, JRipComparatorPerCondition) {
  ml::JRip model;
  const auto d = ml::testdata::separable_binary();
  model.train(d);
  EXPECT_EQ(comparators(lower(model, d.num_features())),
            model.total_conditions());
}

TEST(Lowering, NaiveBayesScalesWithClassesTimesFeatures) {
  ml::NaiveBayes model;
  const auto d = ml::testdata::three_class();  // 3 classes x 5 features
  model.train(d);
  const Netlist nl = lower(model, d.num_features());
  // One log-density ROM per (class, feature), no multipliers.
  EXPECT_EQ(nl.count_ops(NetOp::kLutRom), 3u * 5u);
  EXPECT_EQ(nl.count_ops(NetOp::kMul), 0u);
}

TEST(Lowering, LinearBankMulticlassUsesKHyperplanes) {
  // MLR and SVM score every class, binary included, then take the argmax.
  for (const ml::Dataset& d : {ml::testdata::separable_binary(),
                               ml::testdata::three_class()}) {
    for (const std::string& scheme : {"MLR", "SVM"}) {
      SCOPED_TRACE(scheme);
      auto clf = ml::make_classifier(scheme);
      clf->train(d);
      const Netlist nl = lower(*clf, d.num_features());
      const std::size_t k = d.num_classes();
      EXPECT_EQ(nl.count_ops(NetOp::kMul), k * d.num_features());
      ASSERT_EQ(nl.count_ops(NetOp::kArgmax), 1u);
      EXPECT_EQ(nl.node(nl.node(nl.output()).args[0]).args.size(), k);
    }
  }
}

TEST(Lowering, MlpDominatesEverything) {
  const auto d = ml::testdata::separable_binary();
  ml::Mlp mlp({.epochs = 5});
  mlp.train(d);
  ml::OneR oner;
  oner.train(d);
  const Netlist mlp_nl = lower(mlp, d.num_features());
  const Netlist oner_nl = lower(oner, d.num_features());
  EXPECT_GT(mlp_nl.total_resources().equivalent_slices(),
            50.0 * oner_nl.total_resources().equivalent_slices());
  EXPECT_GT(mlp_nl.latency_cycles(), oner_nl.latency_cycles());
}

TEST(Lowering, MlpMultiplierCount) {
  const auto d = ml::testdata::separable_binary();  // 4 features, 2 classes
  ml::Mlp mlp({.hidden_units = 6, .epochs = 3});
  mlp.train(d);
  const Netlist nl = lower(mlp, d.num_features());
  // hidden: 6*4, output: 2*6 → 36 multipliers; sigmoid ROM per hidden unit.
  EXPECT_EQ(nl.count_ops(NetOp::kMul), 36u);
  EXPECT_EQ(nl.count_ops(NetOp::kLutRom), 6u);
}

TEST(Lowering, DispatchCoversAllSynthesizableSchemes) {
  const auto d = ml::testdata::separable_binary();
  for (const auto& scheme :
       {"OneR", "DecisionStump", "J48", "JRip", "NaiveBayes", "MLR", "SVM",
        "MLP"}) {
    auto clf = ml::make_classifier(scheme);
    clf->train(d);
    const Netlist nl = lower(*clf, d.num_features());
    EXPECT_TRUE(nl.has_output()) << scheme;
    EXPECT_GT(nl.latency_cycles(), 0u) << scheme;
  }
}

TEST(Lowering, UnsupportedClassifierThrows) {
  ml::Knn knn;
  knn.train(ml::testdata::separable_binary());
  EXPECT_THROW((void)lower(knn, 4), hmd::PreconditionError);
}

// ---------------------------------------------------------------------------
// SynthesisReport on compiled designs.

TEST(Synthesis, ReportFieldsConsistent) {
  const auto d = ml::testdata::separable_binary();
  auto clf = ml::make_classifier("MLR");
  clf->train(d);
  const SynthesisReport r =
      compile(*clf, {.num_features = d.num_features()}).report();
  EXPECT_EQ(r.design_name, "MLR");
  EXPECT_GT(r.latency_cycles, 0u);
  EXPECT_GT(r.area_slices(), 0.0);
  EXPECT_GT(r.total_power_mw(), 0.0);
  EXPECT_NEAR(r.latency_us(),
              static_cast<double>(r.latency_cycles) / r.clock_mhz, 1e-12);
  EXPECT_NE(r.to_string().find("MLR"), std::string::npos);
}

TEST(Synthesis, FasterClockShortensLatency) {
  const auto d = ml::testdata::separable_binary();
  auto clf = ml::make_classifier("SVM");
  clf->train(d);
  const auto slow =
      compile(*clf, {.num_features = 4, .clock_mhz = 100.0}).report();
  const auto fast =
      compile(*clf, {.num_features = 4, .clock_mhz = 200.0}).report();
  EXPECT_EQ(slow.latency_cycles, fast.latency_cycles);
  EXPECT_GT(slow.latency_us(), fast.latency_us());
}

}  // namespace
}  // namespace hmd::hw
