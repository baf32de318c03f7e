#include "ml/quantized.hpp"

#include <algorithm>
#include <cmath>

#include "ml/logistic.hpp"
#include "ml/mlp.hpp"
#include "ml/svm.hpp"
#include "util/error.hpp"
#include "util/fixed_point.hpp"

namespace hmd::ml {

namespace {

const Standardizer* find_standardizer(const Classifier& c) {
  const Classifier& u = c.unwrap();
  if (const auto* p = dynamic_cast<const Logistic*>(&u))
    return &p->standardizer();
  if (const auto* p = dynamic_cast<const LinearSvm*>(&u))
    return &p->standardizer();
  if (const auto* p = dynamic_cast<const Mlp*>(&u)) return &p->standardizer();
  return nullptr;
}

}  // namespace

bool QuantizedModel::q16_supported(const Classifier& base) {
  return find_standardizer(base) != nullptr;
}

QuantizedModel::QuantizedModel(std::shared_ptr<const Classifier> base, Mode,
                               std::vector<double> feature_absmax)
    : base_(std::move(base)), absmax_(std::move(feature_absmax)) {
  HMD_REQUIRE(base_ != nullptr, "QuantizedModel: null base model");
  HMD_REQUIRE(base_->num_classes() >= 2,
              "QuantizedModel: base model is not trained");
  if (absmax_.empty()) {
    const Standardizer* std_ = find_standardizer(*base_);
    HMD_REQUIRE(std_ != nullptr,
                "QuantizedModel: q16 mode needs feature_absmax calibration "
                "for schemes without a standardizer");
    const auto& mean = std_->means();
    const auto& sd = std_->stddevs();
    absmax_.resize(mean.size());
    for (std::size_t f = 0; f < mean.size(); ++f)
      absmax_[f] = std::abs(mean[f]) + 6.0 * sd[f];
  }
  q16_scale_.resize(absmax_.size());
  for (std::size_t f = 0; f < absmax_.size(); ++f) {
    absmax_[f] = std::max(absmax_[f], 1e-12);
    // Keep values within +-2^14 so Q16.16 products stay representable —
    // the identical rule hw/evaluate_fixed_point applies.
    q16_scale_[f] = absmax_[f] > 16000.0 ? 16000.0 / absmax_[f] : 1.0;
  }
}

void QuantizedModel::train(const DatasetView&) {
  HMD_REQUIRE(false, "QuantizedModel: train the base model, then wrap it");
}

std::string QuantizedModel::name() const { return "q16/" + base_->name(); }

void QuantizedModel::q16_rows(std::span<const double> flat, std::size_t rows,
                              std::vector<double>& buf) const {
  const std::size_t d = q16_scale_.size();
  buf.resize(rows * d);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t f = 0; f < d; ++f) {
      const double x = flat[r * d + f];
      buf[r * d + f] = quantize_q16(x * q16_scale_[f]) / q16_scale_[f];
    }
}

std::size_t QuantizedModel::predict(std::span<const double> features) const {
  HMD_REQUIRE(features.size() == q16_scale_.size(),
              "QuantizedModel: feature width mismatch");
  std::vector<double> buf;
  q16_rows(features, 1, buf);
  return base_->predict(buf);
}

std::vector<double> QuantizedModel::distribution(
    std::span<const double> features) const {
  HMD_REQUIRE(features.size() == q16_scale_.size(),
              "QuantizedModel: feature width mismatch");
  std::vector<double> buf;
  q16_rows(features, 1, buf);
  return base_->distribution(buf);
}

void QuantizedModel::distribution_batch(std::span<const double> flat,
                                        std::size_t window_size,
                                        std::span<double> out) const {
  const std::size_t rows = require_batch(flat, window_size, out);
  const std::size_t k = num_classes();
  constexpr std::size_t kChunkRows = 1024;
  HMD_REQUIRE(window_size == q16_scale_.size(),
              "QuantizedModel: feature width mismatch");
  std::vector<double> buf;
  for (std::size_t base = 0; base < rows; base += kChunkRows) {
    const std::size_t lim = std::min(kChunkRows, rows - base);
    q16_rows(flat.subspan(base * window_size, lim * window_size), lim, buf);
    base_->distribution_batch(buf, window_size,
                              out.subspan(base * k, lim * k));
  }
}

}  // namespace hmd::ml
