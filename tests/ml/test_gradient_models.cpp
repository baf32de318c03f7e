#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "ml/evaluation.hpp"
#include "ml/kernels.hpp"
#include "ml/knn.hpp"
#include "ml/logistic.hpp"
#include "ml/mlp.hpp"
#include "ml/svm.hpp"
#include "tests/ml/mlp_reference.hpp"
#include "tests/ml/synthetic_data.hpp"
#include "util/error.hpp"

namespace hmd::ml {
namespace {

using namespace testdata;

TEST(Softmax, NormalizesAndOrders) {
  std::vector<double> logits = {1.0, 3.0, 2.0};
  kernels::softmax_inplace(logits);
  double total = 0.0;
  for (double p : logits) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_GT(logits[1], logits[2]);
  EXPECT_GT(logits[2], logits[0]);
}

TEST(Softmax, StableForLargeLogits) {
  std::vector<double> logits = {1000.0, 1001.0};
  kernels::softmax_inplace(logits);
  EXPECT_TRUE(std::isfinite(logits[0]));
  EXPECT_NEAR(logits[0] + logits[1], 1.0, 1e-12);
}

TEST(Logistic, AccurateOnSeparableBinary) {
  const Dataset d = separable_binary();
  Logistic lr;
  lr.train(d);
  EXPECT_GT(evaluate(lr, d).accuracy(), 0.98);
}

TEST(Logistic, MulticlassSoftmax) {
  const Dataset d = three_class();
  Logistic lr;
  lr.train(d);
  EXPECT_GT(evaluate(lr, d).accuracy(), 0.95);
  EXPECT_EQ(lr.num_classes(), 3u);
}

TEST(Logistic, DistributionSumsToOne) {
  Logistic lr;
  lr.train(three_class());
  const auto dist = lr.distribution(std::vector<double>{1, 1, 1, 1, 1});
  double total = 0.0;
  for (double p : dist) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Logistic, CannotSolveXor) {
  const Dataset d = xor_problem();
  Logistic lr;
  lr.train(d);
  EXPECT_LT(evaluate(lr, d).accuracy(), 0.7);  // linear ceiling ≈ 0.5
}

TEST(Logistic, GeneralizesOnHeldOutData) {
  Dataset d = blobs(2, 6, 300, 2.0, 1.0, 21);
  Rng rng(4);
  const auto [train, test] = d.stratified_split(0.7, rng);
  Logistic lr;
  lr.train(train);
  EXPECT_GT(evaluate(lr, test).accuracy(), 0.85);
}

TEST(Logistic, WeightsExposeModel) {
  Logistic lr;
  lr.train(separable_binary());
  ASSERT_EQ(lr.weights().size(), 2u);
  EXPECT_EQ(lr.weights()[0].size(), 5u);  // 4 features + bias
}

TEST(Svm, AccurateOnSeparableBinary) {
  const Dataset d = separable_binary();
  LinearSvm svm;
  svm.train(d);
  EXPECT_GT(evaluate(svm, d).accuracy(), 0.97);
}

TEST(Svm, MulticlassOneVsRest) {
  const Dataset d = three_class();
  LinearSvm svm;
  svm.train(d);
  EXPECT_GT(evaluate(svm, d).accuracy(), 0.85);
}

TEST(Svm, CannotSolveXor) {
  const Dataset d = xor_problem();
  LinearSvm svm;
  svm.train(d);
  EXPECT_LT(evaluate(svm, d).accuracy(), 0.7);
}

TEST(Svm, DistributionIsNormalized) {
  LinearSvm svm;
  svm.train(three_class());
  const auto dist = svm.distribution(std::vector<double>{0, 0, 0, 0, 0});
  double total = 0.0;
  for (double p : dist) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Svm, RegularizationControlsMarginFit) {
  const Dataset d = overlapping_binary();
  LinearSvm tight({.lambda = 1e-5, .epochs = 20});
  LinearSvm loose({.lambda = 1.0, .epochs = 20});
  tight.train(d);
  loose.train(d);
  // Heavy regularization shrinks weights toward zero.
  double tight_norm = 0.0, loose_norm = 0.0;
  for (std::size_t f = 0; f < 4; ++f) {
    tight_norm += tight.weights()[1][f] * tight.weights()[1][f];
    loose_norm += loose.weights()[1][f] * loose.weights()[1][f];
  }
  EXPECT_GT(tight_norm, loose_norm);
}

TEST(Mlp, AccurateOnSeparableBinary) {
  const Dataset d = separable_binary();
  Mlp mlp({.epochs = 60});
  mlp.train(d);
  EXPECT_GT(evaluate(mlp, d).accuracy(), 0.97);
}

TEST(Mlp, SolvesXor) {
  const Dataset d = xor_problem();
  Mlp mlp({.hidden_units = 8, .epochs = 200});
  mlp.train(d);
  EXPECT_GT(evaluate(mlp, d).accuracy(), 0.95);
}

TEST(Mlp, DefaultHiddenUnitsFollowWekaRule) {
  Mlp mlp({.epochs = 5});
  mlp.train(three_class());  // 5 features + 3 classes → (5+3)/2 = 4
  EXPECT_EQ(mlp.hidden_units(), 4u);
}

TEST(Mlp, ExplicitHiddenUnitsRespected) {
  Mlp mlp({.hidden_units = 9, .epochs = 5});
  mlp.train(three_class());
  EXPECT_EQ(mlp.hidden_units(), 9u);
}

TEST(Mlp, DistributionSumsToOne) {
  Mlp mlp({.epochs = 20});
  mlp.train(three_class());
  const auto dist = mlp.distribution(std::vector<double>{0, 1, 2, 3, 4});
  double total = 0.0;
  for (double p : dist) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Mlp, DeterministicInSeed) {
  const Dataset d = separable_binary(100);
  Mlp a({.epochs = 10, .seed = 3});
  Mlp b({.epochs = 10, .seed = 3});
  a.train(d);
  b.train(d);
  for (std::size_t j = 0; j < a.w1().size(); ++j)
    for (std::size_t f = 0; f < a.w1()[j].size(); ++f)
      EXPECT_DOUBLE_EQ(a.w1()[j][f], b.w1()[j][f]);
}

TEST(Mlp, MulticlassAccuracy) {
  const Dataset d = three_class();
  Mlp mlp({.epochs = 80});
  mlp.train(d);
  EXPECT_GT(evaluate(mlp, d).accuracy(), 0.95);
}

/// Same shape and the same bits in every weight.
bool same_bits(const std::vector<std::vector<double>>& a,
               const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t r = 0; r < a.size(); ++r)
    if (a[r].size() != b[r].size() ||
        std::memcmp(a[r].data(), b[r].data(), a[r].size() * sizeof(double)))
      return false;
  return true;
}

TEST(Mlp, TrainMatchesPerRowReferenceBitForBit) {
  // h spans one unit, partial tiles, whole tiles and several tile groups
  // of every clone's lane width.
  const kernels::Isa saved = kernels::active_isa();
  const Dataset binary = blobs(2, 6, 40, 1.0, 1.5, 21);
  const Dataset multi = blobs(3, 5, 30, 1.5, 1.2, 22);
  for (const kernels::Isa isa :
       {kernels::Isa::kScalar, kernels::Isa::kAvx2, kernels::Isa::kAvx512}) {
    if (!kernels::isa_supported(isa)) continue;
    kernels::force_isa(isa);
    for (const Dataset* data : {&binary, &multi})
      for (const std::size_t h : {1, 3, 5, 9, 13, 33})
        for (const bool decay : {true, false}) {
          const Mlp::Params params{
              .hidden_units = h, .epochs = 7, .decay = decay, .seed = 5};
          Mlp mlp(params);
          mlp.train(*data);
          const auto ref = testref::train_mlp_reference(*data, params);
          EXPECT_TRUE(same_bits(mlp.w1(), ref.w1))
              << kernels::to_string(isa) << " k=" << data->num_classes()
              << " h=" << h << " decay=" << decay;
          EXPECT_TRUE(same_bits(mlp.w2(), ref.w2))
              << kernels::to_string(isa) << " k=" << data->num_classes()
              << " h=" << h << " decay=" << decay;
        }
  }
  kernels::force_isa(saved);
}

TEST(Knn, AccurateOnSeparableData) {
  const Dataset d = separable_binary();
  Knn knn(3);
  knn.train(d);
  EXPECT_GT(evaluate(knn, d).accuracy(), 0.97);
}

TEST(Knn, SolvesXor) {
  const Dataset d = xor_problem();
  Knn knn(5);
  knn.train(d);
  EXPECT_GT(evaluate(knn, d).accuracy(), 0.95);
}

TEST(Knn, OneNearestMemorizesTraining) {
  const Dataset d = overlapping_binary(100);
  Knn knn(1);
  knn.train(d);
  EXPECT_DOUBLE_EQ(evaluate(knn, d).accuracy(), 1.0);
}

TEST(GradientModels, PredictBeforeTrainThrows) {
  const std::vector<double> x = {1.0};
  EXPECT_THROW((void)Logistic().predict(x), PreconditionError);
  EXPECT_THROW((void)LinearSvm().predict(x), PreconditionError);
  EXPECT_THROW((void)Mlp().predict(x), PreconditionError);
  EXPECT_THROW((void)Knn().predict(x), PreconditionError);
}

// All gradient models learn any blob separation at or above 3 sigma.
class SeparationSweep : public ::testing::TestWithParam<double> {};

TEST_P(SeparationSweep, LogisticTracksSeparability) {
  const Dataset d = blobs(2, 4, 200, GetParam(), 1.0, 31);
  Logistic lr;
  lr.train(d);
  const double acc = evaluate(lr, d).accuracy();
  if (GetParam() >= 3.0)
    EXPECT_GT(acc, 0.95);
  else
    EXPECT_GT(acc, 0.6);
}

INSTANTIATE_TEST_SUITE_P(Separations, SeparationSweep,
                         ::testing::Values(1.0, 2.0, 3.0, 5.0));

}  // namespace
}  // namespace hmd::ml
