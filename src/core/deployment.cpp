#include "core/deployment.hpp"

#include <cmath>
#include <istream>
#include <ostream>
#include <string>

#include "hwsim/events.hpp"
#include "ml/serialization.hpp"
#include "util/error.hpp"
#include "util/token_reader.hpp"

namespace hmd::core {

DeploymentBundle::DeploymentBundle(std::unique_ptr<ml::Classifier> model,
                                   FeatureSet features,
                                   OnlineDetectorConfig policy)
    : DeploymentBundle(std::move(model), nullptr, std::move(features),
                       policy) {}

DeploymentBundle::DeploymentBundle(std::unique_ptr<ml::Classifier> model,
                                   std::unique_ptr<ml::Classifier> fallback,
                                   FeatureSet features,
                                   OnlineDetectorConfig policy)
    : model_(std::move(model)),
      fallback_(std::move(fallback)),
      features_(std::move(features)),
      policy_(policy) {
  HMD_REQUIRE(model_ != nullptr, "DeploymentBundle: null model");
  HMD_REQUIRE(model_->num_classes() >= 2,
              "DeploymentBundle: model is not trained");
  HMD_REQUIRE(fallback_ == nullptr || fallback_->num_classes() >= 2,
              "DeploymentBundle: fallback model is not trained");
  HMD_REQUIRE(fallback_ == nullptr ||
                  fallback_->num_classes() == model_->num_classes(),
              "DeploymentBundle: fallback class count differs from primary");
  HMD_REQUIRE(features_.indices.size() == features_.names.size(),
              "DeploymentBundle: feature set indices/names mismatch");
  for (const std::size_t idx : features_.indices)
    HMD_REQUIRE(idx < hwsim::kNumFeatureEvents,
                "DeploymentBundle: feature index " + std::to_string(idx) +
                    " is not below " +
                    std::to_string(hwsim::kNumFeatureEvents) +
                    " (the collector's event count)");
  // Reject broken alarm policies at assembly time, not first monitor use —
  // this also guards load_bundle against corrupt persisted policies.
  policy_.validate();
}

std::vector<double> DeploymentBundle::project(
    std::span<const double> full) const {
  if (features_.indices.empty()) {
    require_finite_window(full, "DeploymentBundle");
    return {full.begin(), full.end()};
  }
  std::vector<double> projected;
  projected.reserve(features_.indices.size());
  for (std::size_t idx : features_.indices) {
    HMD_REQUIRE(idx < full.size(),
                "DeploymentBundle: counter vector too short");
    if (!std::isfinite(full[idx])) [[unlikely]]
      throw PreconditionError("DeploymentBundle: counter " +
                              std::to_string(idx) + " is not finite");
    projected.push_back(full[idx]);
  }
  return projected;
}

std::size_t DeploymentBundle::predict(
    std::span<const double> full_counters) const {
  return model_->predict(project(full_counters));
}

double DeploymentBundle::malware_probability(
    std::span<const double> full_counters) const {
  HMD_REQUIRE(model_->num_classes() == 2,
              "malware_probability: binary bundles only");
  return model_->distribution(project(full_counters))[1];
}

OnlineDetector DeploymentBundle::make_monitor() const {
  return OnlineDetector(*model_, policy_);
}

OnlineDetector::Verdict DeploymentBundle::observe_full(
    OnlineDetector& monitor, std::span<const double> full_counters) const {
  return monitor.observe(project(full_counters));
}

void save_bundle(std::ostream& out, const DeploymentBundle& bundle) {
  const bool v2 = bundle.fallback_model() != nullptr;
  out << (v2 ? "hmd-bundle v2\n" : "hmd-bundle v1\n");
  out << "features " << bundle.features().indices.size() << '\n';
  for (std::size_t i = 0; i < bundle.features().indices.size(); ++i)
    out << "feature " << bundle.features().indices[i] << ' '
        << bundle.features().names[i] << '\n';
  out << "policy " << hexfloat(bundle.policy().flag_threshold) << ' '
      << bundle.policy().confirm_windows << '\n';
  if (v2) out << "fallback 1\n";
  ml::save_model(out, bundle.model());
  if (v2) ml::save_model(out, *bundle.fallback_model());
}

namespace {

/// The actual parser (v1 and v2); throws ParseError on malformed input.
DeploymentBundle read_bundle(TokenReader& reader) {
  const std::string version = reader.header("hmd-bundle", {"v1", "v2"});

  const std::uint64_t n_features = reader.count_line("features");
  FeatureSet features;
  for (std::uint64_t i = 0; i < n_features; ++i) {
    // "feature <idx> <name>" — event names are hyphenated, no spaces.
    reader.line("feature");
    const std::uint64_t index = reader.count("feature");
    if (index >= hwsim::kNumFeatureEvents)
      reader.fail("feature", "index " + std::to_string(index) +
                                 " is not below " +
                                 std::to_string(hwsim::kNumFeatureEvents));
    features.indices.push_back(index);
    features.names.push_back(reader.word("feature"));
    reader.end_line();
  }

  reader.line("policy");
  OnlineDetectorConfig policy;
  policy.flag_threshold = reader.real("policy");
  policy.confirm_windows = reader.count("policy");
  reader.end_line();

  bool has_fallback = false;
  if (version == "v2") {
    reader.line("fallback");
    has_fallback = reader.flag("fallback");
    reader.end_line();
  }

  // The models are sections of the bundle, read on at its line numbers.
  std::unique_ptr<ml::Classifier> model = ml::read_model(reader);
  std::unique_ptr<ml::Classifier> fallback;
  if (has_fallback) fallback = ml::read_model(reader);
  return DeploymentBundle(std::move(model), std::move(fallback),
                          std::move(features), policy);
}

}  // namespace

Result<DeploymentBundle> try_load_bundle(std::istream& in) {
  return capture_result([&in] {
           TokenReader reader(in, "bundle");
           return read_bundle(reader);
         })
      .with_context("loading deployment bundle");
}

DeploymentBundle load_bundle(std::istream& in) {
  // Thin throwing wrapper: value() raises the ErrorInfo as a ParseError.
  return try_load_bundle(in).value();
}

}  // namespace hmd::core
