// End-to-end integration: database → sandbox → HPC collection → dataset →
// PCA reduction → train/test → hardware synthesis. A miniature version of
// every experiment in the thesis, checked for the paper's qualitative
// shapes.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/dataset_builder.hpp"
#include "core/detector.hpp"
#include "core/feature_reduction.hpp"
#include "hw/compile.hpp"
#include "ml/registry.hpp"
#include "util/error.hpp"

namespace hmd::core {
namespace {

struct Fixture {
  ml::Dataset multi;
  ml::Dataset mtrain, mtest;
  ml::Dataset btrain, btest;
};

const Fixture& fixture() {
  static const Fixture f = [] {
    PipelineConfig cfg = PipelineConfig::quick(0.08, 8);
    cfg.collector.ops_per_window = 2000;
    ml::Dataset multi = DatasetBuilder(cfg).build_multiclass_dataset();
    Rng rng(99);
    auto [mtrain, mtest] = multi.stratified_split(cfg.train_fraction, rng);
    ml::Dataset binary = DatasetBuilder::to_binary(multi);
    Rng rng2(100);
    auto [btrain, btest] = binary.stratified_split(cfg.train_fraction, rng2);
    return Fixture{std::move(multi), std::move(mtrain), std::move(mtest),
                   std::move(btrain), std::move(btest)};
  }();
  return f;
}

TEST(Integration, BinaryDetectorsBeatZeroROrTie) {
  const auto zero =
      train_and_evaluate("ZeroR", fixture().btrain, fixture().btest);
  for (const auto& scheme : {"JRip", "MLR", "MLP"}) {
    const auto tm = train_and_evaluate(scheme, fixture().btrain,
                                       fixture().btest);
    EXPECT_GE(tm.evaluation.accuracy() + 0.02, zero.evaluation.accuracy())
        << scheme;
  }
}

TEST(Integration, MlpDetectsBenignWindows) {
  const auto tm = train_and_evaluate("MLP", fixture().btrain, fixture().btest);
  EXPECT_GT(tm.evaluation.recall(0), 0.1);  // benign recall above zero
  EXPECT_GT(tm.evaluation.recall(1), 0.9);  // malware recall high
}

TEST(Integration, MulticlassBeatsMajorityByWideMargin) {
  const auto counts = fixture().mtest.class_counts();
  const double majority =
      static_cast<double>(
          *std::max_element(counts.begin(), counts.end())) /
      static_cast<double>(fixture().mtest.num_instances());
  const auto tm = train_and_evaluate("MLR", fixture().mtrain, fixture().mtest);
  EXPECT_GT(tm.evaluation.accuracy(), majority + 0.2);
}

TEST(Integration, RootkitAndWormAreWellSeparated) {
  // Their microarchitectural signatures are extreme opposites (frontend vs
  // memory pressure), so family recall should be high for both.
  const auto tm = train_and_evaluate("MLR", fixture().mtrain, fixture().mtest);
  const auto rootkit = static_cast<std::size_t>(workload::AppClass::kRootkit);
  EXPECT_GT(tm.evaluation.recall(rootkit), 0.8);
}

TEST(Integration, FeatureReductionKeepsMostBinaryAccuracy) {
  const FeatureReducer reducer(fixture().mtrain);
  const FeatureSet top8 = reducer.binary_top_features(8);
  const BinaryStudy study(fixture().btrain, fixture().btest);
  const auto full = study.run({"J48"});
  const auto reduced = study.run({"J48"}, &top8);
  EXPECT_GT(reduced.front().accuracy(), full.front().accuracy() - 0.05);
}

TEST(Integration, ReducedFeaturesShrinkLinearModelHardware) {
  const FeatureReducer reducer(fixture().mtrain);
  const FeatureSet top4 = reducer.binary_top_features(4);
  const BinaryStudy study(fixture().btrain, fixture().btest);
  const auto full = study.run({"SVM"});
  const auto reduced = study.run({"SVM"}, &top4);
  EXPECT_LT(reduced.front().synthesis.area_slices(),
            full.front().synthesis.area_slices());
}

TEST(Integration, AccuracyPerAreaFavorsSimpleClassifiers) {
  // Fig. 16's punchline.
  const BinaryStudy study(fixture().btrain, fixture().btest);
  const auto rows = study.run({"OneR", "JRip", "MLP"});
  const double oner = rows[0].accuracy_per_slice();
  const double jrip = rows[1].accuracy_per_slice();
  const double mlp = rows[2].accuracy_per_slice();
  EXPECT_GT(oner, mlp);
  EXPECT_GT(jrip, mlp);
}

TEST(Integration, EveryStudySchemeSynthesizes) {
  for (const auto& scheme : ml::binary_study_classifiers()) {
    auto clf = ml::make_classifier(scheme);
    clf->train(fixture().btrain);
    const auto report =
        hw::compile(*clf, {.num_features = fixture().btrain.num_features()})
            .report();
    EXPECT_GT(report.latency_cycles, 0u) << scheme;
    EXPECT_GT(report.area_slices(), 0.0) << scheme;
  }
}

TEST(Integration, IdealPmuAtLeastAsAccurateAsMultiplexed) {
  // The multiplexing ablation's expected direction (allow a small margin
  // for noise at this tiny scale).
  PipelineConfig mux_cfg = PipelineConfig::quick(0.04, 6);
  PipelineConfig ideal_cfg = mux_cfg;
  ideal_cfg.collector.ideal_pmu = true;
  const ml::Dataset mux =
      DatasetBuilder::to_binary(DatasetBuilder(mux_cfg).build_multiclass_dataset());
  const ml::Dataset ideal = DatasetBuilder::to_binary(
      DatasetBuilder(ideal_cfg).build_multiclass_dataset());
  Rng r1(5), r2(5);
  auto [mt, mv] = mux.stratified_split(0.7, r1);
  auto [it, iv] = ideal.stratified_split(0.7, r2);
  const double mux_acc =
      train_and_evaluate("MLR", mt, mv).evaluation.accuracy();
  const double ideal_acc =
      train_and_evaluate("MLR", it, iv).evaluation.accuracy();
  EXPECT_GE(ideal_acc, mux_acc - 0.03);
}

TEST(Integration, PcaAssistedPipelineEndToEnd) {
  PcaAssistedOvr ovr({.scheme = "MLR", .features_per_class = 8});
  ovr.train(fixture().mtrain);
  const auto ev = ovr.evaluate(fixture().mtest);
  EXPECT_GT(ev.accuracy(), 0.6);
  // Per-class custom sets were actually customized (not all identical).
  bool any_difference = false;
  for (std::size_t c = 1; c < ovr.class_features().size(); ++c)
    any_difference |=
        ovr.class_features()[c].indices != ovr.class_features()[0].indices;
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace hmd::core
