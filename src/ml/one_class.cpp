#include "ml/one_class.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "ml/kernels.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace hmd::ml {

namespace {

/// Per-feature mean and sample stddev of a rectangular row set.
void fit_standardization(const std::vector<std::vector<double>>& rows,
                         std::vector<double>& mean, std::vector<double>& sd) {
  const std::size_t d = rows.front().size();
  mean.assign(d, 0.0);
  sd.assign(d, 0.0);
  for (const auto& row : rows)
    for (std::size_t f = 0; f < d; ++f) mean[f] += row[f];
  for (double& m : mean) m /= static_cast<double>(rows.size());
  for (const auto& row : rows)
    for (std::size_t f = 0; f < d; ++f) {
      const double delta = row[f] - mean[f];
      sd[f] += delta * delta;
    }
  for (double& s : sd)
    s = std::sqrt(s / static_cast<double>(rows.size() - 1));
}

}  // namespace

// ---------------------------------------------------------------------------
// OneClassClassifier — shared benign-only training and calibration
// ---------------------------------------------------------------------------

void OneClassClassifier::train(const DatasetView& data) {
  require_trainable(data);
  HMD_REQUIRE(data.num_classes() == 2,
              name() + " expects a binary (benign/malware) dataset");
  std::vector<std::vector<double>> benign;
  for (std::size_t i = 0; i < data.num_instances(); ++i) {
    if (data.class_of(i) != 0) continue;  // benign is class 0
    const auto x = data.features_of(i);
    benign.emplace_back(x.begin(), x.end());
  }
  HMD_REQUIRE(benign.size() >= kMinBenignRows,
              name() + ": too few benign training rows");

  scale_ = 0.0;  // retraining replaces the model; invalidate first
  fit_benign(benign);

  // Calibrate on the benign training scores: the threshold is the given
  // percentile, the sigmoid temperature their spread (floored so a
  // degenerate constant-score fit still yields a monotone map).
  std::vector<double> scores;
  scores.reserve(benign.size());
  for (const auto& row : benign) scores.push_back(anomaly_score(row));
  threshold_ = percentile(scores, threshold_percentile_);
  scale_ = std::max(stddev_of(scores), 1e-9);
}

double OneClassClassifier::calibrated_probability(double score) const {
  HMD_REQUIRE(calibrated(), name() + ": distribution before train");
  return 1.0 / (1.0 + std::exp(-(score - threshold_) / scale_));
}

std::size_t OneClassClassifier::predict(
    std::span<const double> features) const {
  HMD_REQUIRE(calibrated(), name() + ": predict before train");
  return anomaly_score(features) > threshold_ ? 1u : 0u;
}

std::vector<double> OneClassClassifier::distribution(
    std::span<const double> features) const {
  const double p = calibrated_probability(anomaly_score(features));
  return {1.0 - p, p};
}

void OneClassClassifier::distribution_batch(std::span<const double> flat,
                                            std::size_t window_size,
                                            std::span<double> out) const {
  const std::size_t rows = require_batch(flat, window_size, out);
  HMD_REQUIRE(calibrated(), name() + ": distribution before train");
  for (std::size_t r = 0; r < rows; ++r) {
    const double p = calibrated_probability(
        anomaly_score(flat.subspan(r * window_size, window_size)));
    out[r * 2] = 1.0 - p;
    out[r * 2 + 1] = p;
  }
}

// ---------------------------------------------------------------------------
// OneClassSvm
// ---------------------------------------------------------------------------

void OneClassSvm::map_features(std::span<const double> x,
                               std::span<double> phi) const {
  const std::size_t d = mean_.size();
  for (std::size_t f = 0; f < d; ++f) {
    const double z =
        sd_[f] > 0.0 ? (x[f] - mean_[f]) / sd_[f] : 0.0;
    const double envelope = std::exp(-0.5 * z * z);
    phi[f] = envelope;
    phi[d + f] = z * envelope;
  }
}

void OneClassSvm::fit_benign(const std::vector<std::vector<double>>& rows) {
  HMD_REQUIRE(params_.nu > 0.0 && params_.nu <= 1.0,
              "OneClassSvm: nu must be in (0, 1]");
  HMD_REQUIRE(params_.epochs >= 1, "OneClassSvm: epochs must be >= 1");
  fit_standardization(rows, mean_, sd_);

  const std::size_t n = rows.size();
  const std::size_t d = mean_.size();
  const std::size_t dim = 2 * d;

  // Pre-map every row once; training touches only φ-space.
  std::vector<double> phi(n * dim);
  for (std::size_t i = 0; i < n; ++i)
    map_features(rows[i], {phi.data() + i * dim, dim});

  // Pegasos-style subgradient descent on the ν-one-class primal
  //   min (λ/2)||w||² - ρ + (1/(νn)) Σ max(0, ρ - w·φᵢ),  λ = 1,
  // with a seeded per-epoch shuffle so training is bit-reproducible.
  weights_.assign(dim, 0.0);
  rho_ = 0.0;
  const double inv_nu = 1.0 / params_.nu;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(params_.seed);
  std::size_t t = 0;
  for (std::size_t epoch = 0; epoch < params_.epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t i : order) {
      const double eta = 1.0 / static_cast<double>(++t);
      const std::span<const double> row(phi.data() + i * dim, dim);
      const double margin = kernels::dot(weights_, row);
      const double decay = 1.0 - eta;  // λ = 1
      for (double& w : weights_) w *= decay;
      if (margin < rho_) {
        kernels::axpy(eta * inv_nu, row, weights_);
        rho_ -= eta * (inv_nu - 1.0);
      } else {
        rho_ += eta;
      }
    }
  }
}

double OneClassSvm::anomaly_score(std::span<const double> features) const {
  HMD_REQUIRE(!weights_.empty(), "OneClassSvm: score before train");
  HMD_REQUIRE(features.size() == mean_.size(),
              "OneClassSvm: feature width mismatch");
  std::vector<double> phi(weights_.size());
  map_features(features, phi);
  return rho_ - kernels::dot(weights_, phi);
}

// ---------------------------------------------------------------------------
// KdeAnomaly
// ---------------------------------------------------------------------------

void KdeAnomaly::fit_benign(const std::vector<std::vector<double>>& rows) {
  HMD_REQUIRE(params_.max_reference_rows >= kMinBenignRows,
              "KdeAnomaly: max_reference_rows must be >= 8");
  fit_standardization(rows, mean_, sd_);
  const std::size_t d = mean_.size();

  // Deterministic subsample above the reference cap: a seeded shuffle
  // picks the kept rows, then sorting restores temporal order.
  std::vector<std::size_t> keep(rows.size());
  std::iota(keep.begin(), keep.end(), 0);
  if (rows.size() > params_.max_reference_rows) {
    Rng rng(params_.seed);
    rng.shuffle(keep);
    keep.resize(params_.max_reference_rows);
    std::sort(keep.begin(), keep.end());
  }

  points_.clear();
  points_.reserve(keep.size() * d);
  for (std::size_t i : keep) {
    const std::size_t base = points_.size();
    points_.resize(base + d);
    kernels::standardize_into(rows[i], mean_, sd_,
                              {points_.data() + base, d});
  }

  // Scott's rule with unit per-feature variance (post-standardization):
  // h = (4 / (d + 2))^(1/(d+4)) · n^(-1/(d+4)).
  const double nd = static_cast<double>(keep.size());
  const double dd = static_cast<double>(d);
  bandwidth_ = std::pow(4.0 / (dd + 2.0), 1.0 / (dd + 4.0)) *
               std::pow(nd, -1.0 / (dd + 4.0));
}

double KdeAnomaly::anomaly_score(std::span<const double> features) const {
  HMD_REQUIRE(!points_.empty(), "KdeAnomaly: score before train");
  HMD_REQUIRE(features.size() == mean_.size(),
              "KdeAnomaly: feature width mismatch");
  const std::size_t d = mean_.size();
  const std::size_t n = points_.size() / d;
  std::vector<double> z(d);
  kernels::standardize_into(features, mean_, sd_, z);

  // -log mean kernel via log-sum-exp: exponents are -||z - zᵢ||² / (2h²);
  // the max-shift keeps far-away windows finite (score grows ~ distance²).
  const double inv_2h2 = 1.0 / (2.0 * bandwidth_ * bandwidth_);
  std::vector<double> exponents(n);
  double peak = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    const double e =
        -kernels::squared_l2(z, {points_.data() + i * d, d}) * inv_2h2;
    exponents[i] = e;
    peak = std::max(peak, e);
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += std::exp(exponents[i] - peak);
  return -(peak + std::log(acc) - std::log(static_cast<double>(n)));
}

// ---------------------------------------------------------------------------
// MahalanobisThreshold
// ---------------------------------------------------------------------------

void MahalanobisThreshold::fit_benign(
    const std::vector<std::vector<double>>& rows) {
  const std::size_t d = rows.front().size();
  Matrix x(rows.size(), d);
  for (std::size_t i = 0; i < rows.size(); ++i)
    for (std::size_t f = 0; f < d; ++f) x(i, f) = rows[i][f];

  mean_.assign(d, 0.0);
  for (std::size_t i = 0; i < rows.size(); ++i)
    for (std::size_t f = 0; f < d; ++f) mean_[f] += x(i, f);
  for (double& m : mean_) m /= static_cast<double>(rows.size());

  Matrix cov = covariance_matrix(x);
  double trace = 0.0;
  for (std::size_t f = 0; f < d; ++f) trace += cov(f, f);
  const double ridge =
      regularization_ * std::max(trace / static_cast<double>(d), 1.0);
  for (std::size_t f = 0; f < d; ++f) cov(f, f) += ridge;
  precision_ = cov.inverse();
}

double MahalanobisThreshold::anomaly_score(
    std::span<const double> features) const {
  HMD_REQUIRE(precision_.rows() > 0,
              "MahalanobisThreshold: score before train");
  HMD_REQUIRE(features.size() == mean_.size(),
              "MahalanobisThreshold: feature width mismatch");
  const std::size_t d = mean_.size();
  std::vector<double> delta(d);
  for (std::size_t f = 0; f < d; ++f) delta[f] = features[f] - mean_[f];
  const std::vector<double> pd = precision_.multiply(delta);
  return kernels::dot(delta, pd);
}

}  // namespace hmd::ml
