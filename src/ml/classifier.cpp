#include "ml/classifier.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hmd::ml {

std::vector<double> Classifier::distribution(
    std::span<const double> features) const {
  std::vector<double> dist(num_classes(), 0.0);
  const std::size_t p = predict(features);
  HMD_ASSERT(p < dist.size());
  dist[p] = 1.0;
  return dist;
}

void Classifier::distribution_batch(std::span<const double> flat,
                                    std::size_t window_size,
                                    std::span<double> out) const {
  const std::size_t rows = require_batch(flat, window_size, out);
  const std::size_t k = num_classes();
  for (std::size_t r = 0; r < rows; ++r) {
    const std::vector<double> dist =
        distribution(flat.subspan(r * window_size, window_size));
    HMD_ASSERT(dist.size() == k);
    std::copy(dist.begin(), dist.end(), out.begin() + r * k);
  }
}

void Classifier::predict_one_hot_batch(std::span<const double> flat,
                                       std::size_t window_size,
                                       std::span<double> out) const {
  const std::size_t rows = require_batch(flat, window_size, out);
  const std::size_t k = num_classes();
  std::fill(out.begin(), out.end(), 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t p = predict(flat.subspan(r * window_size, window_size));
    HMD_ASSERT(p < k);
    out[r * k + p] = 1.0;
  }
}

std::size_t Classifier::require_batch(std::span<const double> flat,
                                      std::size_t window_size,
                                      std::span<const double> out) const {
  HMD_REQUIRE(window_size > 0,
              "distribution_batch: window_size must be positive");
  HMD_REQUIRE(flat.size() % window_size == 0,
              "distribution_batch: input not a whole number of rows");
  const std::size_t rows = flat.size() / window_size;
  HMD_REQUIRE(out.size() == rows * num_classes(),
              "distribution_batch: output size must be rows x num_classes");
  return rows;
}

void Classifier::require_trainable(const DatasetView& data) {
  HMD_REQUIRE(!data.empty(), "train: dataset is empty");
  HMD_REQUIRE(data.num_features() >= 1, "train: dataset has no features");
  HMD_REQUIRE(data.num_classes() >= 2,
              "train: class attribute needs at least two values");
}

void throw_scheme_type_mismatch(const Classifier& clf) {
  throw PreconditionError("classifier named '" + clf.name() +
                          "' is not that scheme's type");
}

}  // namespace hmd::ml
