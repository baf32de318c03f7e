// One-class (benign-only) detection schemes — the unsupervised direction
// of Tang/Sethumadhavan/Stolfo (arXiv:1403.1631): model BENIGN hardware
// behaviour only and flag deviations, so malware families absent from the
// training corpus are detectable in principle.
//
// All three schemes share one contract (OneClassClassifier):
//   * train() consumes the benign rows (class 0) of a binary dataset and
//     ignores the malware rows entirely;
//   * a raw anomaly_score() (higher = more anomalous) is thresholded at a
//     percentile of the benign training scores;
//   * distribution() maps the score through a calibrated sigmoid so the
//     serving path sees a CONTINUOUS P(malware) — the drift detectors
//     (serve/drift.hpp) test the score distribution, which one-hot
//     distributions would starve.
// Because training is unsupervised, these are the only schemes the
// drift-triggered retrain loop may rebuild from live (unlabeled) traffic;
// the registry marks them via ml::one_class_schemes().
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/classifier.hpp"
#include "ml/matrix.hpp"

namespace hmd::ml {

/// Shared benign-only training + sigmoid score calibration. Derived
/// schemes implement fit_benign() and anomaly_score(); the base extracts
/// the benign rows, fits, and calibrates threshold_ (the given percentile
/// of benign training scores) and scale_ (their spread) so that
/// P(malware) = sigmoid((score - threshold) / scale).
class OneClassClassifier : public Classifier {
 public:
  /// Fewest benign rows any one-class scheme will fit on.
  static constexpr std::size_t kMinBenignRows = 8;

  void train(const DatasetView& data) override;
  std::size_t predict(std::span<const double> features) const override;
  std::vector<double> distribution(
      std::span<const double> features) const override;
  void distribution_batch(std::span<const double> flat,
                          std::size_t window_size,
                          std::span<double> out) const override;
  std::size_t num_classes() const override { return 2; }

  /// Raw anomaly score of one window (higher = more anomalous). Throws
  /// before training.
  virtual double anomaly_score(std::span<const double> features) const = 0;

  bool calibrated() const { return scale_ > 0.0; }
  /// Benign-percentile score threshold: predict() says malware above it.
  double threshold() const { return threshold_; }
  /// Sigmoid temperature (benign training-score spread).
  double score_scale() const { return scale_; }
  /// The calibrated sigmoid: P(malware) for a raw anomaly score.
  double calibrated_probability(double score) const;

 protected:
  explicit OneClassClassifier(double threshold_percentile)
      : threshold_percentile_(threshold_percentile) {}

  /// Fit scheme state on the benign feature rows (>= kMinBenignRows,
  /// rectangular, at least one feature — validated by train()).
  virtual void fit_benign(const std::vector<std::vector<double>>& rows) = 0;

 private:
  friend struct ModelIo;
  double threshold_percentile_;
  double threshold_ = 0.0;
  double scale_ = 0.0;  ///< 0 until calibrated
};

/// ν-one-class SVM (Schölkopf et al., 2001) trained in the primal with
/// Pegasos-style seeded subgradient descent, over a bounded per-feature
/// Gaussian-envelope map φ(z) = [exp(-z²/2), z·exp(-z²/2)] of the
/// standardized window (the explicit-feature stand-in for the RBF kernel:
/// φ vanishes far from the benign mass, so w·φ falls below the margin ρ
/// for outliers in ANY direction). Anomaly score: ρ - w·φ(x).
class OneClassSvm final : public OneClassClassifier {
 public:
  struct Params {
    double nu = 0.1;            ///< target benign margin-violation fraction
    std::size_t epochs = 40;    ///< passes over the benign rows
    std::uint64_t seed = 7;     ///< SGD sampling order
    double threshold_percentile = 95.0;
  };

  OneClassSvm() : OneClassSvm(Params{}) {}
  explicit OneClassSvm(Params params)
      : OneClassClassifier(params.threshold_percentile), params_(params) {}

  std::string name() const override { return "OneClassSvm"; }
  double anomaly_score(std::span<const double> features) const override;

  double rho() const { return rho_; }
  const std::vector<double>& weights() const { return weights_; }

 protected:
  void fit_benign(const std::vector<std::vector<double>>& rows) override;

 private:
  friend struct ModelIo;
  void map_features(std::span<const double> x, std::span<double> phi) const;

  Params params_;
  std::vector<double> mean_;     ///< per-feature standardization
  std::vector<double> sd_;
  std::vector<double> weights_;  ///< 2·d envelope-feature weights
  double rho_ = 0.0;             ///< margin offset
};

/// Kernel density anomaly detection: a product-Gaussian KDE over the
/// standardized benign rows (Scott's-rule bandwidth, deterministic seeded
/// subsample above max_reference_rows); the anomaly score is the negative
/// log mean kernel, computed with a log-sum-exp so far-away windows score
/// finitely and monotonically in distance.
class KdeAnomaly final : public OneClassClassifier {
 public:
  struct Params {
    double threshold_percentile = 97.5;
    std::size_t max_reference_rows = 256;  ///< KDE reference-set cap
    std::uint64_t seed = 11;               ///< subsample selection
  };

  KdeAnomaly() : KdeAnomaly(Params{}) {}
  explicit KdeAnomaly(Params params)
      : OneClassClassifier(params.threshold_percentile), params_(params) {}

  std::string name() const override { return "KdeAnomaly"; }
  double anomaly_score(std::span<const double> features) const override;

  double bandwidth() const { return bandwidth_; }
  std::size_t num_reference_rows() const {
    return mean_.empty() ? 0 : points_.size() / mean_.size();
  }

 protected:
  void fit_benign(const std::vector<std::vector<double>>& rows) override;

 private:
  friend struct ModelIo;
  Params params_;
  std::vector<double> mean_;
  std::vector<double> sd_;
  std::vector<double> points_;  ///< standardized reference rows, row-major
  double bandwidth_ = 0.0;      ///< shared per-feature Gaussian bandwidth
};

/// Squared Mahalanobis distance to the benign centroid under the
/// ridge-regularized benign covariance — the statistical detector of the
/// thesis's future work (Tang et al., RAID'14). The ridge keeps the
/// precision matrix well-conditioned: counters are strongly correlated and
/// some are near-constant on benign data.
class MahalanobisThreshold final : public OneClassClassifier {
 public:
  struct Params {
    double threshold_percentile = 97.5;
    double regularization = 1e-3;  ///< ridge, relative to the mean variance
  };

  MahalanobisThreshold() : MahalanobisThreshold(Params{}) {}
  explicit MahalanobisThreshold(Params params)
      : OneClassClassifier(params.threshold_percentile),
        regularization_(params.regularization) {}

  std::string name() const override { return "MahalanobisThreshold"; }
  double anomaly_score(std::span<const double> features) const override;

 protected:
  void fit_benign(const std::vector<std::vector<double>>& rows) override;

 private:
  friend struct ModelIo;
  double regularization_;
  std::vector<double> mean_;
  Matrix precision_;  ///< inverse ridge covariance
};

}  // namespace hmd::ml
