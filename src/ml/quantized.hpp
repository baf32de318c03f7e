// Quantized inference view over a trained classifier — the q16 serving
// tier. Inputs pass through the hardware Q16.16 datapath word
// (util/fixed_point.hpp) before hitting the unmodified float model. This is
// exactly the quantization hw/evaluate_fixed_point applies, so a wrapped
// model is bit-identical to that reference harness when calibrated with the
// same per-feature magnitudes. Works for every scheme.
#pragma once

#include <memory>

#include "ml/classifier.hpp"

namespace hmd::ml {

class QuantizedModel final : public Classifier {
 public:
  /// The only mode. It stays because callers name it when they wrap.
  enum class Mode { kQ16Input };

  /// True when `base` can be wrapped WITHOUT an explicit calibration — i.e.
  /// the scheme exposes a standardizer to derive the per-feature magnitudes
  /// from. The serving tier uses this gate so unsupported schemes keep the
  /// float path instead of throwing mid-serve.
  static bool q16_supported(const Classifier& base);

  /// Wraps a trained model. `feature_absmax` (one per raw input feature)
  /// calibrates the input grid; when empty it is derived from the base
  /// model's standardizer as |mean| + 6*stddev — a dataset-free bound
  /// covering essentially all of the training distribution's mass (a
  /// scheme without a standardizer requires an explicit calibration).
  QuantizedModel(std::shared_ptr<const Classifier> base, Mode mode,
                 std::vector<double> feature_absmax = {});

  /// Wrapping is post-training only.
  void train(const DatasetView& data) override;
  std::size_t predict(std::span<const double> features) const override;
  std::vector<double> distribution(
      std::span<const double> features) const override;
  void distribution_batch(std::span<const double> flat,
                          std::size_t window_size,
                          std::span<double> out) const override;
  std::string name() const override;
  std::size_t num_classes() const override { return base_->num_classes(); }
  /// Decorator convention: expose the wrapped concrete scheme.
  const Classifier& unwrap() const override { return base_->unwrap(); }

 private:
  void q16_rows(std::span<const double> flat, std::size_t rows,
                std::vector<double>& buf) const;

  std::shared_ptr<const Classifier> base_;
  std::vector<double> absmax_;     ///< per raw feature, >= 1e-12
  std::vector<double> q16_scale_;  ///< per-feature pre-scale
};

}  // namespace hmd::ml
