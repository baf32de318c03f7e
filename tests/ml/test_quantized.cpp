// QuantizedModel — the q16 serving tier: inputs snapped to the hardware
// Q16.16 grid before the unmodified float model. It must stay close to
// float accuracy on well-separated data.
#include "ml/quantized.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ml/evaluation.hpp"
#include "ml/logistic.hpp"
#include "ml/mlp.hpp"
#include "ml/svm.hpp"
#include "tests/ml/synthetic_data.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hmd::ml {
namespace {

/// Non-owning handle matching the serving-side wrapping convention.
std::shared_ptr<const Classifier> borrow(const Classifier& c) {
  return {std::shared_ptr<void>(), &c};
}

double accuracy_of(const Classifier& clf, const DatasetView& data) {
  std::size_t hits = 0;
  for (std::size_t r = 0; r < data.num_instances(); ++r) {
    if (clf.predict(data.features_of(r)) == data.class_of(r)) ++hits;
  }
  return static_cast<double>(hits) /
         static_cast<double>(data.num_instances());
}

TEST(Quantized, WrapRequiresTrainedBaseAndRefusesTrain) {
  Logistic untrained;
  EXPECT_THROW(
      QuantizedModel(borrow(untrained), QuantizedModel::Mode::kQ16Input),
      Error);
  Logistic trained;
  const auto data = testdata::separable_binary();
  trained.train(data);
  QuantizedModel q(borrow(trained), QuantizedModel::Mode::kQ16Input);
  EXPECT_THROW(q.train(data), Error);
}

TEST(Quantized, NamesAndUnwrapExposeTierAndScheme) {
  Logistic model;
  model.train(testdata::separable_binary());
  const QuantizedModel q16(borrow(model), QuantizedModel::Mode::kQ16Input);
  EXPECT_EQ(q16.name(), "q16/MLR");
  EXPECT_EQ(&q16.unwrap(), &model.unwrap());
  EXPECT_EQ(q16.num_classes(), model.num_classes());
}

TEST(Quantized, Q16StaysCloseToFloatOnSeparableData) {
  const auto data = testdata::blobs(3, 8, 150, 4.0, 1.0, 71);
  Rng rng(72);
  const auto [train, test] = data.stratified_split_views(0.6, rng);
  struct Case {
    const char* name;
    std::unique_ptr<Classifier> model;
  };
  std::vector<Case> cases;
  cases.push_back({"MLR", std::make_unique<Logistic>()});
  cases.push_back({"SVM", std::make_unique<LinearSvm>()});
  cases.push_back({"MLP", std::make_unique<Mlp>()});
  for (auto& c : cases) {
    c.model->train(train);
    const double base = accuracy_of(*c.model, test);
    const QuantizedModel q16(borrow(*c.model),
                             QuantizedModel::Mode::kQ16Input);
    EXPECT_GE(base, 0.85) << c.name;  // the problem is easy by design
    EXPECT_NEAR(accuracy_of(q16, test), base, 0.02) << c.name;
  }
}

TEST(Quantized, BatchMatchesPerRowBitForBit) {
  // Whatever the tier's rounding does, its batch override must agree with
  // its own per-row path exactly — the bench's bit_identical gate.
  Logistic model;
  const auto data = testdata::blobs(3, 8, 120, 3.0, 1.0, 73);
  model.train(data);
  const QuantizedModel q(borrow(model), QuantizedModel::Mode::kQ16Input);
  const std::size_t rows = 50, d = 8, k = q.num_classes();
  std::vector<double> flat;
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t f = 0; f < d; ++f)
      flat.push_back(data.instance(r).values[f]);
  std::vector<double> batch(rows * k);
  q.distribution_batch(flat, d, batch);
  for (std::size_t r = 0; r < rows; ++r) {
    const auto one =
        q.distribution(std::span<const double>(flat.data() + r * d, d));
    for (std::size_t c = 0; c < k; ++c)
      ASSERT_EQ(batch[r * k + c], one[c]) << "r=" << r;
  }
}

TEST(Quantized, ExplicitCalibrationOverridesDerivedGrid) {
  Logistic model;
  model.train(testdata::separable_binary());
  // A wildly oversized grid still predicts (coarser, maybe worse — but it
  // must construct and score), and a per-feature vector of the right
  // length is accepted.
  const std::size_t d = 4;
  const QuantizedModel q(borrow(model), QuantizedModel::Mode::kQ16Input,
                         std::vector<double>(d, 100.0));
  const std::vector<double> x(d, 0.5);
  const auto dist = q.distribution(x);
  ASSERT_EQ(dist.size(), model.num_classes());
  double total = 0.0;
  for (double v : dist) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

}  // namespace
}  // namespace hmd::ml
