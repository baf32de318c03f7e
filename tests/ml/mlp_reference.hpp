// Reference MLP trainer for the exactness checks: the per-row SGD loop
// over vector<vector> weights, one hidden unit at a time. Mlp::train runs
// the same epochs on SIMD lanes (kernels::mlp_sgd_epoch) and must match
// this loop bit for bit on every ISA: same init draws, same shuffles, the
// same operations per unit in the same order.
#pragma once

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/kernels.hpp"
#include "ml/mlp.hpp"
#include "ml/preprocess.hpp"
#include "util/rng.hpp"

namespace hmd::ml::testref {

struct MlpReferenceWeights {
  std::vector<std::vector<double>> w1;  ///< [hidden][feature + bias]
  std::vector<std::vector<double>> w2;  ///< [class][hidden + bias]
};

inline MlpReferenceWeights train_mlp_reference(const DatasetView& data,
                                               const Mlp::Params& params) {
  Standardizer standardizer;
  standardizer.fit(data);
  const std::size_t k = data.num_classes();
  const std::size_t d = data.num_features();
  const std::size_t n = data.num_instances();
  const std::size_t h =
      params.hidden_units > 0 ? params.hidden_units : (d + k) / 2;

  std::vector<double> x(n * d);
  std::vector<std::size_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    kernels::standardize_into(data.features_of(i), standardizer.means(),
                              standardizer.stddevs(), {x.data() + i * d, d});
    labels[i] = data.class_of(i);
  }

  Rng rng(params.seed);
  auto init = [&](std::size_t fan_in) {
    return rng.normal(0.0, 1.0 / std::sqrt(static_cast<double>(fan_in)));
  };
  MlpReferenceWeights net;
  auto& w1 = net.w1;
  auto& w2 = net.w2;
  w1.assign(h, std::vector<double>(d + 1, 0.0));
  w2.assign(k, std::vector<double>(h + 1, 0.0));
  for (auto& row : w1)
    for (double& w : row) w = init(d + 1);
  for (auto& row : w2)
    for (double& w : row) w = init(h + 1);
  std::vector<std::vector<double>> v1(h, std::vector<double>(d + 1, 0.0));
  std::vector<std::vector<double>> v2(k, std::vector<double>(h + 1, 0.0));

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> hidden(h);
  std::vector<double> out(k);
  std::vector<double> delta_h(h);
  for (std::size_t epoch = 0; epoch < params.epochs; ++epoch) {
    const double lr =
        params.decay ? params.learning_rate /
                           (1.0 + 4.0 * static_cast<double>(epoch) /
                                      static_cast<double>(params.epochs))
                     : params.learning_rate;
    rng.shuffle(order);
    for (std::size_t idx : order) {
      const std::span<const double> xi{x.data() + idx * d, d};
      for (std::size_t j = 0; j < h; ++j)
        hidden[j] = kernels::sigmoid(kernels::dot({w1[j].data(), d}, xi,
                                                  w1[j][d]));
      for (std::size_t c = 0; c < k; ++c)
        out[c] = kernels::dot({w2[c].data(), h}, hidden, w2[c][h]);
      kernels::softmax_inplace(out);

      // delta_h reads each output row before that row's momentum step.
      const std::size_t y = labels[idx];
      std::fill(delta_h.begin(), delta_h.end(), 0.0);
      for (std::size_t c = 0; c < k; ++c) {
        const double err = out[c] - (c == y ? 1.0 : 0.0);
        kernels::axpy(err, {w2[c].data(), h}, delta_h);
        const double scale = lr * err;
        for (std::size_t j = 0; j < h; ++j) {
          v2[c][j] = params.momentum * v2[c][j] - scale * hidden[j];
          w2[c][j] += v2[c][j];
        }
        v2[c][h] = params.momentum * v2[c][h] - lr * err;
        w2[c][h] += v2[c][h];
      }
      for (std::size_t j = 0; j < h; ++j) {
        const double grad = delta_h[j] * hidden[j] * (1.0 - hidden[j]);
        const double scale = lr * grad;
        for (std::size_t f = 0; f < d; ++f) {
          v1[j][f] = params.momentum * v1[j][f] - scale * xi[f];
          w1[j][f] += v1[j][f];
        }
        v1[j][d] = params.momentum * v1[j][d] - lr * grad;
        w1[j][d] += v1[j][d];
      }
    }
  }
  return net;
}

}  // namespace hmd::ml::testref
