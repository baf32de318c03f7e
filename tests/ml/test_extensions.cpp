// Tests for the extension modules: cross-validation, ensembles (AdaBoost,
// Bagging), the Mahalanobis-distance one-class detector, and
// Matrix::inverse.
#include <gtest/gtest.h>

#include <cmath>

#include "ml/cross_validation.hpp"
#include "ml/decision_stump.hpp"
#include "ml/ensemble.hpp"
#include "ml/evaluation.hpp"
#include "ml/j48.hpp"
#include "ml/matrix.hpp"
#include "ml/one_class.hpp"
#include "ml/registry.hpp"
#include "tests/ml/synthetic_data.hpp"
#include "util/error.hpp"

namespace hmd::ml {
namespace {

using namespace testdata;

// ---------------------------------------------------------------- inverse

TEST(MatrixInverse, IdentityIsItsOwnInverse) {
  const Matrix i3 = Matrix::identity(3);
  const Matrix inv = i3.inverse();
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_NEAR(inv(r, c), r == c ? 1.0 : 0.0, 1e-12);
}

TEST(MatrixInverse, KnownTwoByTwo) {
  Matrix m(2, 2);
  m(0, 0) = 4; m(0, 1) = 7; m(1, 0) = 2; m(1, 1) = 6;
  const Matrix inv = m.inverse();
  EXPECT_NEAR(inv(0, 0), 0.6, 1e-12);
  EXPECT_NEAR(inv(0, 1), -0.7, 1e-12);
  EXPECT_NEAR(inv(1, 0), -0.2, 1e-12);
  EXPECT_NEAR(inv(1, 1), 0.4, 1e-12);
}

TEST(MatrixInverse, ProductIsIdentity) {
  Rng rng(7);
  const std::size_t n = 6;
  Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) m(r, c) = rng.normal();
  for (std::size_t d = 0; d < n; ++d) m(d, d) += 5.0;  // well-conditioned
  const Matrix prod = m * m.inverse();
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      EXPECT_NEAR(prod(r, c), r == c ? 1.0 : 0.0, 1e-9);
}

TEST(MatrixInverse, SingularThrows) {
  Matrix m(2, 2);
  m(0, 0) = 1; m(0, 1) = 2; m(1, 0) = 2; m(1, 1) = 4;
  EXPECT_THROW((void)m.inverse(), PreconditionError);
  EXPECT_THROW((void)Matrix(2, 3).inverse(), PreconditionError);
}

// ------------------------------------------------------- cross-validation

TEST(CrossValidation, PooledCoversEveryInstanceOnce) {
  const Dataset d = separable_binary(100);
  Rng rng(3);
  const auto result = cross_validate(
      [] { return make_classifier("OneR"); }, d, 5, rng);
  EXPECT_EQ(result.pooled.total(), d.num_instances());
  EXPECT_EQ(result.fold_accuracies.size(), 5u);
}

TEST(CrossValidation, AccurateOnSeparableData) {
  const Dataset d = separable_binary(150);
  Rng rng(5);
  const auto result = cross_validate(
      [] { return make_classifier("J48"); }, d, 10, rng);
  EXPECT_GT(result.pooled.accuracy(), 0.93);
  EXPECT_GT(result.mean_accuracy(), 0.9);
  EXPECT_LT(result.stddev_accuracy(), 0.15);
}

TEST(CrossValidation, MeanMatchesFoldAverage) {
  const Dataset d = overlapping_binary(200);
  Rng rng(9);
  const auto result = cross_validate(
      [] { return make_classifier("NaiveBayes"); }, d, 4, rng);
  double mean = 0.0;
  for (double a : result.fold_accuracies) mean += a;
  mean /= 4.0;
  EXPECT_NEAR(result.mean_accuracy(), mean, 1e-12);
}

TEST(CrossValidation, DeterministicInRngState) {
  const Dataset d = overlapping_binary(120);
  Rng a(11), b(11);
  const auto ra = cross_validate([] { return make_classifier("OneR"); },
                                 d, 3, a);
  const auto rb = cross_validate([] { return make_classifier("OneR"); },
                                 d, 3, b);
  EXPECT_EQ(ra.pooled.correct(), rb.pooled.correct());
}

TEST(CrossValidation, RejectsBadInput) {
  const Dataset d = separable_binary(20);
  Rng rng(1);
  EXPECT_THROW(cross_validate([] { return make_classifier("OneR"); },
                              d, 1, rng),
               PreconditionError);
  EXPECT_THROW(cross_validate([] { return make_classifier("OneR"); },
                              d, 1000, rng),
               PreconditionError);
}

// ---------------------------------------------------------------- boosting

/// A band problem one threshold cannot express: positive inside (-1, 1).
Dataset band_problem(std::size_t n, std::uint64_t seed) {
  std::vector<Attribute> attrs;
  attrs.emplace_back("x");
  attrs.emplace_back("class", std::vector<std::string>{"out", "in"});
  Dataset d(std::move(attrs));
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.uniform(-3.0, 3.0);
    d.add({{x, (x > -1.0 && x < 1.0) ? 1.0 : 0.0}});
  }
  return d;
}

TEST(AdaBoost, BoostedStumpsCarveABand) {
  // A single threshold cannot express "inside (-1, 1)"; a boosted stump
  // committee can.
  const Dataset d = band_problem(600, 21);
  DecisionStump stump;
  stump.train(d);
  const double stump_acc = evaluate(stump, d).accuracy();

  AdaBoostM1 boost([] { return std::make_unique<DecisionStump>(); },
                   {.iterations = 40});
  boost.train(d);
  const double boost_acc = evaluate(boost, d).accuracy();
  EXPECT_LT(stump_acc, 0.9);
  EXPECT_GT(boost_acc, stump_acc + 0.05);
}

TEST(AdaBoost, CommitteeGrows) {
  const Dataset d = overlapping_binary(300);
  AdaBoostM1 boost([] { return std::make_unique<DecisionStump>(); },
                   {.iterations = 20});
  boost.train(d);
  EXPECT_GE(boost.committee_size(), 2u);
  EXPECT_EQ(boost.member_weights().size(), boost.committee_size());
  for (double alpha : boost.member_weights()) EXPECT_GT(alpha, 0.0);
}

TEST(AdaBoost, StopsEarlyOnPerfectMember) {
  const Dataset d = single_feature_rule(200);
  AdaBoostM1 boost([] { return std::make_unique<J48>(); },
                   {.iterations = 25});
  boost.train(d);
  // J48 nails this dataset immediately; the committee stays tiny.
  EXPECT_LE(boost.committee_size(), 3u);
  EXPECT_GT(evaluate(boost, d).accuracy(), 0.97);
}

TEST(AdaBoost, DistributionIsNormalized) {
  const Dataset d = three_class();
  AdaBoostM1 boost([] { return std::make_unique<DecisionStump>(); },
                   {.iterations = 15});
  boost.train(d);
  const auto dist = boost.distribution(d.features_of(0));
  double total = 0.0;
  for (double p : dist) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(AdaBoost, PredictBeforeTrainThrows) {
  AdaBoostM1 boost([] { return std::make_unique<DecisionStump>(); });
  EXPECT_THROW((void)boost.predict(std::vector<double>{1.0}),
               PreconditionError);
}

// ----------------------------------------------------------------- bagging

TEST(Bagging, TrainsRequestedBags) {
  const Dataset d = overlapping_binary(200);
  Bagging bag([]() -> std::unique_ptr<Classifier> {
    return std::make_unique<J48>();
  }, {.bags = 7});
  bag.train(d);
  EXPECT_EQ(bag.committee_size(), 7u);
}

TEST(Bagging, AtLeastAsGoodAsWorstMemberOnHeldOut) {
  Dataset d = overlapping_binary(500);
  Rng rng(13);
  const auto [train, test] = d.stratified_split(0.7, rng);
  Bagging bag([]() -> std::unique_ptr<Classifier> {
    return std::make_unique<J48>(J48::Params{.min_leaf = 2, .prune = false});
  }, {.bags = 15});
  bag.train(train);
  J48 single({.min_leaf = 2, .prune = false});
  single.train(train);
  // Variance reduction: the bagged committee shouldn't do meaningfully
  // worse than a single overfit tree, and usually does better.
  EXPECT_GE(evaluate(bag, test).accuracy(),
            evaluate(single, test).accuracy() - 0.02);
}

TEST(Bagging, VoteSharesAreFractions) {
  const Dataset d = three_class(80);
  Bagging bag([]() -> std::unique_ptr<Classifier> {
    return std::make_unique<J48>();
  }, {.bags = 5});
  bag.train(d);
  const auto dist = bag.distribution(d.features_of(3));
  double total = 0.0;
  for (double p : dist) {
    EXPECT_GE(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Bagging, RegistrySchemesWork) {
  const Dataset d = separable_binary(100);
  for (const auto& scheme : {"AdaBoostM1", "Bagging"}) {
    auto clf = make_classifier(scheme);
    clf->train(d);
    EXPECT_GT(evaluate(*clf, d).accuracy(), 0.9) << scheme;
  }
}

// ----------------------------------------------------------------- anomaly
// MahalanobisThreshold specifics; the contract it shares with the rest of
// the one-class family is swept in test_one_class.cpp (OneClassSweep).

/// Binary dataset holding only benign rows: a unit Gaussian cluster at
/// the origin.
Dataset benign_dataset(std::size_t n, std::uint64_t seed) {
  std::vector<Attribute> attrs;
  attrs.emplace_back("f0");
  attrs.emplace_back("f1");
  attrs.emplace_back("f2");
  attrs.emplace_back("class", std::vector<std::string>{"benign", "malware"});
  Dataset d(std::move(attrs));
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i)
    d.add({{rng.normal(), rng.normal(), rng.normal(), 0.0}});
  return d;
}

TEST(Mahalanobis, ThresholdCalibratedToPercentile) {
  const Dataset d = benign_dataset(1000, 5);
  MahalanobisThreshold clf({.threshold_percentile = 95.0});
  clf.train(d);
  int alarms = 0;
  for (std::size_t i = 0; i < d.num_instances(); ++i)
    alarms += static_cast<int>(clf.predict(d.features_of(i)));
  // ~5% of training benign rows sit above the 95th percentile.
  EXPECT_NEAR(alarms, 50, 25);
}

TEST(Mahalanobis, HandlesCorrelatedFeatures) {
  // Two nearly-duplicate features: covariance is near-singular; the ridge
  // must keep the precision matrix finite.
  std::vector<Attribute> attrs;
  attrs.emplace_back("a");
  attrs.emplace_back("b");
  attrs.emplace_back("class", std::vector<std::string>{"benign", "malware"});
  Dataset d(std::move(attrs));
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const double v = rng.normal();
    d.add({{v, v + rng.normal(0.0, 1e-6), 0.0}});
  }
  MahalanobisThreshold clf;
  clf.train(d);
  EXPECT_TRUE(std::isfinite(clf.anomaly_score(std::vector<double>{1.0, 1.0})));
}

}  // namespace
}  // namespace hmd::ml
