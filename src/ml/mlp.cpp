#include "ml/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ml/kernels.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hmd::ml {

void Mlp::train(const DatasetView& data) {
  require_trainable(data);
  standardizer_.fit(data);
  const std::size_t k = data.num_classes();
  const std::size_t d = data.num_features();
  const std::size_t n = data.num_instances();
  const std::size_t h =
      params_.hidden_units > 0 ? params_.hidden_units : (d + k) / 2;
  HMD_REQUIRE(h > 0, "MLP needs at least one hidden unit");

  std::vector<double> x(n * d);  // standardized rows, contiguous
  std::vector<std::size_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    kernels::standardize_into(data.features_of(i), standardizer_.means(),
                              standardizer_.stddevs(),
                              {x.data() + i * d, d});
    labels[i] = data.class_of(i);
  }

  Rng rng(params_.seed);
  auto init = [&](std::size_t fan_in) {
    return rng.normal(0.0, 1.0 / std::sqrt(static_cast<double>(fan_in)));
  };
  w1_.assign(h, std::vector<double>(d + 1, 0.0));
  w2_.assign(k, std::vector<double>(h + 1, 0.0));
  for (auto& row : w1_)
    for (double& w : row) w = init(d + 1);
  for (auto& row : w2_)
    for (double& w : row) w = init(h + 1);
  kernels::MlpWeights net = kernels::MlpWeights::pack(w1_, w2_);

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t epoch = 0; epoch < params_.epochs; ++epoch) {
    const double lr =
        params_.decay ? params_.learning_rate /
                            (1.0 + 4.0 * static_cast<double>(epoch) /
                                       static_cast<double>(params_.epochs))
                      : params_.learning_rate;
    rng.shuffle(order);
    kernels::mlp_sgd_epoch(net, x.data(), labels.data(), order.data(), n, lr,
                           params_.momentum);
  }

  net.unpack(w1_, w2_);
  build_packed();
}

void Mlp::build_packed() {
  packed1_ = kernels::pack_weights_feature_major(w1_);
  packed2_ = kernels::pack_weights_feature_major(w2_);
}

std::vector<double> Mlp::hidden_activations(std::span<const double> x) const {
  std::vector<double> hidden(w1_.size());
  for (std::size_t j = 0; j < w1_.size(); ++j)
    hidden[j] = kernels::sigmoid(kernels::affine_bias_last(w1_[j], x));
  return hidden;
}

std::vector<double> Mlp::distribution(std::span<const double> features) const {
  HMD_REQUIRE(!w2_.empty(), "MLP: predict before train");
  const std::vector<double> x = standardizer_.transform(features);
  const std::vector<double> hidden = hidden_activations(x);
  std::vector<double> out(w2_.size());
  for (std::size_t c = 0; c < w2_.size(); ++c)
    out[c] = kernels::affine_bias_last(w2_[c], hidden);
  kernels::softmax_inplace(out);
  return out;
}

void Mlp::distribution_batch(std::span<const double> flat,
                             std::size_t window_size,
                             std::span<double> out) const {
  HMD_REQUIRE(!w2_.empty(), "MLP: predict before train");
  const std::size_t rows = require_batch(flat, window_size, out);
  const std::size_t k = w2_.size();
  const std::size_t h = w1_.size();
  const std::vector<double>& mean = standardizer_.means();
  const std::vector<double>& stddev = standardizer_.stddevs();
  HMD_REQUIRE(window_size == mean.size(),
              "MLP::distribution_batch: width mismatch");

  // Chunked two-layer GEMM. Per element the operation sequence is exactly
  // the per-row path's: sigmoid(affine_bias_last(w1_[j], x)) into hidden,
  // affine_bias_last(w2_[c], hidden) into the logits, stable softmax —
  // affine_batch pins the affine forms bit-identical, and sigmoid/softmax
  // are applied with the same code, so batch == per-row to the last bit.
  constexpr std::size_t kChunkRows = 128;
  const std::size_t chunk = std::min(rows, kChunkRows);
  std::vector<double> x(chunk * window_size);  // standardized rows
  std::vector<double> hidden(chunk * h);       // sigmoid activations
  for (std::size_t base = 0; base < rows; base += kChunkRows) {
    const std::size_t lim = std::min(kChunkRows, rows - base);
    kernels::standardize_rows(flat.data() + base * window_size, lim, mean,
                              stddev, x.data());
    kernels::affine_batch(x.data(), lim, window_size, packed1_.data(), h,
                          hidden.data());
    for (std::size_t i = 0; i < lim * h; ++i)
      hidden[i] = kernels::sigmoid(hidden[i]);
    kernels::affine_batch(hidden.data(), lim, h, packed2_.data(), k,
                          out.data() + base * k);
    for (std::size_t r = 0; r < lim; ++r)
      kernels::softmax_inplace(out.subspan((base + r) * k, k));
  }
}

std::size_t Mlp::predict(std::span<const double> features) const {
  const auto dist = distribution(features);
  return static_cast<std::size_t>(
      std::max_element(dist.begin(), dist.end()) - dist.begin());
}

}  // namespace hmd::ml
