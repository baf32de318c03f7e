// Reference IBk scorer for the exactness checks: the plain scan of the
// standardized store in store order, through the same (distance², label)
// heap protocol Knn uses. Knn's KD-tree must match it bit for bit on every
// query, ties included. Header-only so the test suite and
// bench_batch_scoring share one copy.
#pragma once

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/kernels.hpp"
#include "ml/preprocess.hpp"
#include "util/error.hpp"

namespace hmd::ml::testref {

class KnnReference {
 public:
  /// Fits a Standardizer on `data` and keeps a standardized copy of its
  /// rows, as Knn::train does. k is clamped to the store size.
  KnnReference(const DatasetView& data, std::size_t k)
      : k_(std::min(k, data.num_instances())),
        classes_(data.num_classes()),
        d_(data.num_features()) {
    standardizer_.fit(data);
    points_.resize(data.num_instances() * d_);
    for (std::size_t i = 0; i < data.num_instances(); ++i) {
      kernels::standardize_into(data.features_of(i), standardizer_.means(),
                                standardizer_.stddevs(),
                                {points_.data() + i * d_, d_});
      labels_.push_back(data.class_of(i));
    }
  }

  std::size_t num_classes() const { return classes_; }

  /// Class distributions of every row of `flat` (rows x width, row-major)
  /// into `out` (rows x num_classes()).
  void distribution_batch(std::span<const double> flat, std::size_t width,
                          std::span<double> out) const {
    HMD_REQUIRE(width == d_ && flat.size() % width == 0 &&
                    out.size() == flat.size() / width * classes_,
                "KnnReference: shape mismatch");
    std::vector<double> x(d_);
    std::vector<std::pair<double, std::size_t>> heap;
    for (std::size_t r = 0; r * width < flat.size(); ++r) {
      kernels::standardize_into(flat.subspan(r * width, width),
                                standardizer_.means(),
                                standardizer_.stddevs(), x);
      heap.clear();
      for (std::size_t i = 0; i < labels_.size(); ++i) {
        const double d2 =
            kernels::squared_l2({points_.data() + i * d_, d_}, x);
        if (heap.size() < k_) {
          heap.emplace_back(d2, labels_[i]);
          std::push_heap(heap.begin(), heap.end());
        } else if (d2 < heap.front().first) {
          std::pop_heap(heap.begin(), heap.end());
          heap.back() = {d2, labels_[i]};
          std::push_heap(heap.begin(), heap.end());
        }
      }
      const std::span<double> dist = out.subspan(r * classes_, classes_);
      std::fill(dist.begin(), dist.end(), 0.0);
      const double share = 1.0 / static_cast<double>(heap.size());
      for (const auto& e : heap) dist[e.second] += share;
    }
  }

 private:
  std::size_t k_;
  std::size_t classes_;
  std::size_t d_;
  Standardizer standardizer_;
  std::vector<double> points_;
  std::vector<std::size_t> labels_;
};

}  // namespace hmd::ml::testref
