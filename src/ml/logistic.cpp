#include "ml/logistic.hpp"

#include <algorithm>

#include "ml/kernels.hpp"
#include "util/error.hpp"

namespace hmd::ml {

void Logistic::train(const DatasetView& data) {
  require_trainable(data);
  standardizer_.fit(data);
  const std::size_t k = data.num_classes();
  const std::size_t d = data.num_features();
  const std::size_t n = data.num_instances();

  // Pre-standardize the training matrix once, into one contiguous block.
  std::vector<double> x(n * d);
  std::vector<std::size_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    kernels::standardize_into(data.features_of(i), standardizer_.means(),
                              standardizer_.stddevs(),
                              {x.data() + i * d, d});
    labels[i] = data.class_of(i);
  }

  weights_.assign(k, std::vector<double>(d + 1, 0.0));
  std::vector<std::vector<double>> velocity(k,
                                            std::vector<double>(d + 1, 0.0));
  std::vector<std::vector<double>> grad(k, std::vector<double>(d + 1, 0.0));

  std::vector<double> logits(k);
  for (std::size_t iter = 0; iter < params_.iterations; ++iter) {
    for (auto& g : grad) std::fill(g.begin(), g.end(), 0.0);

    for (std::size_t i = 0; i < n; ++i) {
      const std::span<const double> xi{x.data() + i * d, d};
      for (std::size_t c = 0; c < k; ++c) {
        logits[c] = kernels::dot({weights_[c].data(), d}, xi, weights_[c][d]);
      }
      kernels::softmax_inplace(logits);
      const std::size_t y = labels[i];
      for (std::size_t c = 0; c < k; ++c) {
        const double err = logits[c] - (c == y ? 1.0 : 0.0);
        kernels::axpy(err, xi, {grad[c].data(), d});
        grad[c][d] += err;
      }
    }

    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t c = 0; c < k; ++c) {
      for (std::size_t f = 0; f <= d; ++f) {
        double g = grad[c][f] * inv_n;
        if (f < d) g += params_.l2 * weights_[c][f];  // no bias decay
        velocity[c][f] = params_.momentum * velocity[c][f] -
                         params_.learning_rate * g;
        weights_[c][f] += velocity[c][f];
      }
    }
  }
  build_packed();
}

void Logistic::build_packed() {
  packed_ = kernels::pack_weights_feature_major(weights_);
}

std::vector<double> Logistic::distribution(
    std::span<const double> features) const {
  HMD_REQUIRE(!weights_.empty(), "Logistic: predict before train");
  const std::vector<double> x = standardizer_.transform(features);
  std::vector<double> logits(weights_.size());
  for (std::size_t c = 0; c < weights_.size(); ++c)
    logits[c] = kernels::affine_bias_last(weights_[c], x);
  kernels::softmax_inplace(logits);
  return logits;
}

void Logistic::distribution_batch(std::span<const double> flat,
                                  std::size_t window_size,
                                  std::span<double> out) const {
  HMD_REQUIRE(!weights_.empty(), "Logistic: predict before train");
  const std::size_t rows = require_batch(flat, window_size, out);
  const std::size_t k = weights_.size();
  const std::vector<double>& mean = standardizer_.means();
  const std::vector<double>& stddev = standardizer_.stddevs();
  HMD_REQUIRE(window_size == mean.size(),
              "Logistic::distribution_batch: width mismatch");

  // Chunked GEMM: standardize a block of rows into one contiguous scratch
  // buffer, compute every logit of the block in a single affine_batch call
  // (bit-identical to per-row affine_bias_last), then softmax each output
  // slice in place. The chunk bounds scratch memory for huge batches while
  // keeping the kernel's row blocking effective.
  constexpr std::size_t kChunkRows = 128;
  std::vector<double> x(std::min(rows, kChunkRows) * window_size);
  for (std::size_t base = 0; base < rows; base += kChunkRows) {
    const std::size_t lim = std::min(kChunkRows, rows - base);
    kernels::standardize_rows(flat.data() + base * window_size, lim, mean,
                              stddev, x.data());
    kernels::affine_batch(x.data(), lim, window_size, packed_.data(), k,
                          out.data() + base * k);
    for (std::size_t r = 0; r < lim; ++r)
      kernels::softmax_inplace(out.subspan((base + r) * k, k));
  }
}

std::size_t Logistic::predict(std::span<const double> features) const {
  const auto dist = distribution(features);
  return static_cast<std::size_t>(
      std::max_element(dist.begin(), dist.end()) - dist.begin());
}

}  // namespace hmd::ml
