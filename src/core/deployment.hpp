// Deployment bundles: everything a runtime monitor needs in one artifact.
//
// A deployed HMD is more than a model: it is a model, the counter subset
// the PMU must be programmed with (feature reduction means the monitor
// samples fewer events — possibly few enough to avoid multiplexing
// entirely), and the alarm policy. The bundle serializes all three, so
// training infrastructure and the monitor can be separate programs.
//
// Format v2 adds an optional *fallback* model — a cheap secondary
// classifier (OneR, ZeroR, a small stump) the serving path degrades to
// when the primary keeps failing or blows its latency budget (see
// serve/resilience.hpp and docs/resilience.md). v1 bundles load
// unchanged; bundles without a fallback still save as v1.
#pragma once

#include <iosfwd>
#include <memory>

#include "core/feature_reduction.hpp"
#include "core/online_detector.hpp"
#include "ml/classifier.hpp"
#include "util/result.hpp"

namespace hmd::core {

/// A complete, loadable detector deployment.
class DeploymentBundle {
 public:
  /// Assemble a bundle. `features` lists the counter columns (of the full
  /// 16-event layout) the model consumes, in model input order; empty
  /// means the model consumes all counters unprojected.
  DeploymentBundle(std::unique_ptr<ml::Classifier> model,
                   FeatureSet features, OnlineDetectorConfig policy);

  /// Assemble a bundle with a degraded-mode fallback model (v2). The
  /// fallback consumes the same projected counter layout as the primary;
  /// nullptr is equivalent to the three-argument constructor.
  DeploymentBundle(std::unique_ptr<ml::Classifier> model,
                   std::unique_ptr<ml::Classifier> fallback,
                   FeatureSet features, OnlineDetectorConfig policy);

  const ml::Classifier& model() const { return *model_; }
  /// The degraded-mode secondary model, or nullptr (v1 bundles).
  const ml::Classifier* fallback_model() const { return fallback_.get(); }
  const FeatureSet& features() const { return features_; }
  const OnlineDetectorConfig& policy() const { return policy_; }

  /// Predicted class for a FULL counter vector (projection applied).
  std::size_t predict(std::span<const double> full_counters) const;
  /// P(malware) for a full counter vector (binary bundles).
  double malware_probability(std::span<const double> full_counters) const;

  /// A fresh monitor wired to this bundle's model and policy. The monitor
  /// consumes full counter vectors through `observe_full`.
  OnlineDetector make_monitor() const;
  /// Observe a full counter vector on `monitor` (projection applied).
  OnlineDetector::Verdict observe_full(
      OnlineDetector& monitor, std::span<const double> full_counters) const;

 private:
  std::unique_ptr<ml::Classifier> model_;
  std::unique_ptr<ml::Classifier> fallback_;  ///< may be null (v1)
  FeatureSet features_;
  OnlineDetectorConfig policy_;

  /// The counters the model reads. Throws PreconditionError naming the
  /// first of them that is NaN or ±inf (see require_finite_window).
  std::vector<double> project(std::span<const double> full) const;
};

/// Serialize a bundle (embeds the models via ml::save_model, so only those
/// schemes are supported). Bundles without a fallback write format v1;
/// bundles with one write v2.
void save_bundle(std::ostream& out, const DeploymentBundle& bundle);

/// Load a bundle saved by save_bundle (v1 or v2). Malformed input yields
/// an ErrorInfo (ErrCode::kParse) carrying a "loading deployment bundle"
/// context frame — the hot-swap path (serve::ModelHub::publish_from_stream)
/// rejects the swap on error and keeps the previous model serving.
Result<DeploymentBundle> try_load_bundle(std::istream& in);

/// Thin throwing wrapper over try_load_bundle (raises hmd::ParseError).
DeploymentBundle load_bundle(std::istream& in);

}  // namespace hmd::core
