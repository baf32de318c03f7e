// Multinomial logistic regression (softmax regression) — WEKA's Logistic,
// and the thesis's "MLR" multiclass classifier. Two classes degenerate to
// ordinary binary logistic regression.
//
// Training: full-batch gradient descent with momentum on the L2-regularized
// cross-entropy, over internally standardized features.
#pragma once

#include <span>

#include "ml/classifier.hpp"
#include "ml/preprocess.hpp"

namespace hmd::ml {

class Logistic final : public Classifier {
 public:
  struct Params {
    std::size_t iterations = 300;
    double learning_rate = 0.5;
    double momentum = 0.9;
    double l2 = 1e-4;  ///< ridge, as WEKA's -R
  };

  Logistic() : Logistic(Params{}) {}
  explicit Logistic(Params params) : params_(params) {}

  void train(const DatasetView& data) override;
  std::size_t predict(std::span<const double> features) const override;
  std::vector<double> distribution(
      std::span<const double> features) const override;
  /// GEMM batch scoring: rows are standardized into one contiguous chunk
  /// and all class logits come from a single kernels::affine_batch call
  /// (bit-identical to the per-row affine path), with the softmax computed
  /// in place in the output slice.
  void distribution_batch(std::span<const double> flat,
                          std::size_t window_size,
                          std::span<double> out) const override;
  std::string name() const override { return "MLR"; }
  std::size_t num_classes() const override { return weights_.size(); }

  /// weights()[c] has num_features entries + bias last (standardized space).
  const std::vector<std::vector<double>>& weights() const { return weights_; }
  const Standardizer& standardizer() const { return standardizer_; }

 private:
  friend struct ModelIo;
  /// Rebuilds packed_ from weights_ (train and model load).
  void build_packed();

  Params params_;
  Standardizer standardizer_;
  std::vector<std::vector<double>> weights_;  ///< [class][feature+1]
  /// weights_ in the feature-major layout kernels::affine_batch consumes.
  std::vector<double> packed_;
};

}  // namespace hmd::ml
