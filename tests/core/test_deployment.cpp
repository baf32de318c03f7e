#include "core/deployment.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "ml/registry.hpp"
#include "tests/ml/synthetic_data.hpp"
#include "util/error.hpp"

namespace hmd::core {
namespace {

using ml::testdata::separable_binary;

/// Binary model over features {1, 3} of a 4-feature layout.
DeploymentBundle make_bundle() {
  const ml::Dataset full = separable_binary(200);
  FeatureSet fs;
  fs.indices = {1, 3};
  fs.names = {"f1", "f3"};
  const ml::Dataset projected = full.project(fs.indices);
  auto model = ml::make_classifier("MLR");
  model->train(projected);
  return DeploymentBundle(std::move(model), fs,
                          {.flag_threshold = 0.9, .confirm_windows = 2});
}

TEST(DeploymentBundle, ProjectsFullCounterVectors) {
  const DeploymentBundle bundle = make_bundle();
  const ml::Dataset full = separable_binary(50);
  const ml::Dataset projected = full.project({1, 3});
  for (std::size_t i = 0; i < full.num_instances(); ++i) {
    EXPECT_EQ(bundle.predict(full.features_of(i)),
              bundle.model().predict(projected.features_of(i)));
  }
}

TEST(DeploymentBundle, MalwareProbabilityMatchesModel) {
  const DeploymentBundle bundle = make_bundle();
  const ml::Dataset full = separable_binary(20);
  for (std::size_t i = 0; i < full.num_instances(); ++i) {
    const double p = bundle.malware_probability(full.features_of(i));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(DeploymentBundle, MonitorUsesBundlePolicy) {
  const DeploymentBundle bundle = make_bundle();
  OnlineDetector monitor = bundle.make_monitor();
  const ml::Dataset full = separable_binary(100);
  // Feed only class-1 (malware-side) rows: alarm after 2 confirmations.
  std::size_t fed = 0;
  for (std::size_t i = 0; i < full.num_instances() && fed < 4; ++i) {
    if (full.class_of(i) != 1) continue;
    bundle.observe_full(monitor, full.features_of(i));
    ++fed;
  }
  EXPECT_TRUE(monitor.alarmed());
}

TEST(DeploymentBundle, SaveLoadRoundTrip) {
  const DeploymentBundle original = make_bundle();
  std::ostringstream out;
  save_bundle(out, original);
  std::istringstream in(out.str());
  const DeploymentBundle loaded = load_bundle(in);

  EXPECT_EQ(loaded.features().indices, original.features().indices);
  EXPECT_EQ(loaded.features().names, original.features().names);
  EXPECT_DOUBLE_EQ(loaded.policy().flag_threshold,
                   original.policy().flag_threshold);
  EXPECT_EQ(loaded.policy().confirm_windows,
            original.policy().confirm_windows);

  const ml::Dataset full = separable_binary(80);
  for (std::size_t i = 0; i < full.num_instances(); ++i)
    EXPECT_EQ(loaded.predict(full.features_of(i)),
              original.predict(full.features_of(i)));
}

TEST(DeploymentBundle, EmptyFeatureSetMeansIdentity) {
  const ml::Dataset full = separable_binary(100);
  auto model = ml::make_classifier("J48");
  model->train(full);
  const DeploymentBundle bundle(std::move(model), {}, {});
  for (std::size_t i = 0; i < 20; ++i)
    EXPECT_EQ(bundle.predict(full.features_of(i)),
              bundle.model().predict(full.features_of(i)));
}

TEST(DeploymentBundle, RejectsBadConstruction) {
  EXPECT_THROW(DeploymentBundle(nullptr, {}, {}), PreconditionError);
  auto untrained = ml::make_classifier("J48");
  EXPECT_THROW(DeploymentBundle(std::move(untrained), {}, {}),
               PreconditionError);
}

TEST(DeploymentBundle, RejectsFeatureIndexBeyondTheCollectorEvents) {
  const ml::Dataset full = separable_binary(200);
  FeatureSet fs;
  fs.indices = {1, 16};
  fs.names = {"f1", "f16"};
  auto model = ml::make_classifier("MLR");
  model->train(full.project({1, 3}));
  try {
    DeploymentBundle(std::move(model), fs, {});
    FAIL() << "a feature index of 16 was accepted";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("feature index 16"),
              std::string::npos)
        << e.what();
  }
}

TEST(DeploymentBundle, LoadRejectsFeatureIndexBeyondTheCollectorEvents) {
  const DeploymentBundle original = make_bundle();
  std::ostringstream out;
  save_bundle(out, original);
  std::string text = out.str();
  const std::size_t pos = text.find("feature 3 f3");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 12, "feature 4000000000 instructions");
  std::istringstream in(text);
  const Result<DeploymentBundle> loaded = try_load_bundle(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code(), ErrCode::kParse);
  EXPECT_EQ(loaded.error().message().rfind("bundle: line 4: 'feature': ", 0),
            0u)
      << loaded.error().message();
}

TEST(DeploymentBundle, ShortCounterVectorThrows) {
  const DeploymentBundle bundle = make_bundle();  // needs index 3
  EXPECT_THROW((void)bundle.predict(std::vector<double>{1.0, 2.0}),
               PreconditionError);
}

TEST(DeploymentBundle, RejectsNonFiniteCountersTheModelReads) {
  const DeploymentBundle bundle = make_bundle();  // reads counters 1 and 3
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto expect_rejected = [](const auto& call, const char* counter) {
    try {
      call();
      ADD_FAILURE() << "accepted a non-finite " << counter;
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(counter), std::string::npos)
          << e.what();
    }
  };
  const std::vector<double> bad_1{0.0, nan, 0.0, 1.0};
  const std::vector<double> bad_3{0.0, 1.0, 0.0, -inf};
  expect_rejected([&] { (void)bundle.predict(bad_1); }, "counter 1");
  expect_rejected([&] { (void)bundle.malware_probability(bad_3); },
                  "counter 3");
  OnlineDetector monitor = bundle.make_monitor();
  expect_rejected([&] { bundle.observe_full(monitor, bad_3); }, "counter 3");
  EXPECT_EQ(monitor.windows_seen(), 0u);
  // Counters the projection drops are never read, so they may be anything.
  EXPECT_NO_THROW(
      (void)bundle.malware_probability(std::vector<double>{nan, 1.0, inf, 1.0}));

  // With no projection the model reads every counter.
  const ml::Dataset full = separable_binary(100);
  auto model = ml::make_classifier("J48");
  model->train(full);
  const DeploymentBundle identity(std::move(model), {}, {});
  expect_rejected(
      [&] { (void)identity.predict(std::vector<double>{0.0, 0.0, nan, 0.0}); },
      "counter 2");
}

/// make_bundle() plus a cheap OneR fallback (bundle format v2).
DeploymentBundle make_v2_bundle() {
  const ml::Dataset full = separable_binary(200);
  FeatureSet fs;
  fs.indices = {1, 3};
  fs.names = {"f1", "f3"};
  const ml::Dataset projected = full.project(fs.indices);
  auto model = ml::make_classifier("MLR");
  model->train(projected);
  auto fallback = ml::make_classifier("OneR");
  fallback->train(projected);
  return DeploymentBundle(std::move(model), std::move(fallback), fs,
                          {.flag_threshold = 0.9, .confirm_windows = 2});
}

TEST(DeploymentBundle, FallbackRoundTripsThroughV2Format) {
  const DeploymentBundle original = make_v2_bundle();
  std::ostringstream out;
  save_bundle(out, original);
  const std::string text = out.str();
  EXPECT_EQ(text.rfind("hmd-bundle v2\n", 0), 0u);
  EXPECT_NE(text.find("fallback 1\n"), std::string::npos);

  std::istringstream in(text);
  const DeploymentBundle loaded = load_bundle(in);
  ASSERT_NE(loaded.fallback_model(), nullptr);
  EXPECT_EQ(loaded.fallback_model()->name(),
            original.fallback_model()->name());

  // Both models must survive the round trip prediction-for-prediction.
  const ml::Dataset full = separable_binary(80);
  const ml::Dataset projected = full.project({1, 3});
  for (std::size_t i = 0; i < full.num_instances(); ++i) {
    EXPECT_EQ(loaded.predict(full.features_of(i)),
              original.predict(full.features_of(i)));
    EXPECT_EQ(loaded.fallback_model()->predict(projected.features_of(i)),
              original.fallback_model()->predict(projected.features_of(i)));
  }
}

TEST(DeploymentBundle, BundleWithoutFallbackStaysV1) {
  // v1 stays the wire format for fallback-less bundles, so pre-v2 readers
  // of those files keep working.
  const DeploymentBundle original = make_bundle();
  std::ostringstream out;
  save_bundle(out, original);
  EXPECT_EQ(out.str().rfind("hmd-bundle v1\n", 0), 0u);
  EXPECT_EQ(out.str().find("fallback"), std::string::npos);
  std::istringstream in(out.str());
  EXPECT_EQ(load_bundle(in).fallback_model(), nullptr);
}

TEST(DeploymentBundle, RejectsUnusableFallback) {
  const ml::Dataset projected = separable_binary(100).project({1, 3});
  auto primary = ml::make_classifier("MLR");
  primary->train(projected);
  auto untrained = ml::make_classifier("OneR");
  EXPECT_THROW(DeploymentBundle(std::move(primary), std::move(untrained),
                                {}, {}),
               PreconditionError);

  auto primary2 = ml::make_classifier("MLR");
  primary2->train(projected);
  auto three_way = ml::make_classifier("OneR");
  three_way->train(ml::testdata::three_class(60));
  EXPECT_THROW(DeploymentBundle(std::move(primary2), std::move(three_way),
                                {}, {}),
               PreconditionError);
}

TEST(DeploymentBundle, LoadRejectsCorruptFallbackFlag) {
  const DeploymentBundle original = make_v2_bundle();
  std::ostringstream out;
  save_bundle(out, original);
  std::string text = out.str();
  const std::size_t pos = text.find("fallback 1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 10, "fallback 7");
  std::istringstream in(text);
  EXPECT_THROW((void)load_bundle(in), ParseError);
}

TEST(DeploymentBundle, LoadRejectsGarbage) {
  std::istringstream bad("not-a-bundle\n");
  EXPECT_THROW((void)load_bundle(bad), ParseError);
  std::istringstream truncated("hmd-bundle v1\nfeatures 2\n");
  EXPECT_THROW((void)load_bundle(truncated), ParseError);
}

TEST(DeploymentBundle, LoadRejectsCorruptPolicyValues) {
  // A bundle that parses cleanly but carries an impossible policy must not
  // arm a monitor: the bundle constructor re-validates the policy, so the
  // load throws PreconditionError rather than returning a broken detector.
  const DeploymentBundle original = make_bundle();
  std::ostringstream out;
  save_bundle(out, original);
  std::string text = out.str();
  const std::string needle = "policy ";
  const std::size_t pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  const std::size_t eol = text.find('\n', pos);
  text.replace(pos, eol - pos, "policy 0x1.8p+1 4");  // threshold 3.0 > 1
  std::istringstream in(text);
  EXPECT_THROW((void)load_bundle(in), PreconditionError);
}

}  // namespace
}  // namespace hmd::core
