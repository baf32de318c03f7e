// JRip — WEKA's implementation of RIPPER (Cohen, 1995).
//
// This is the incremental-reduced-error-pruning core of RIPPER: classes are
// learned in ascending-frequency order; for each class, rules are grown
// condition-by-condition to maximize FOIL gain on a grow set, then pruned
// back on a held-out prune set; covered instances are removed and the loop
// repeats until the class is exhausted or a new rule fails the prune-set
// precision bar. The most frequent class becomes the default rule. (RIPPER's
// global post-optimization passes are omitted; they refine rule sets but do
// not change the accuracy/area picture the thesis draws.)
//
// The thesis singles out JRip, with OneR, as the classifier family whose
// tiny hardware footprint (a chain of comparators) wins the accuracy/area
// trade-off.
#pragma once

#include <cstdint>

#include "ml/classifier.hpp"
#include "util/error.hpp"

namespace hmd::ml {

class JRip final : public Classifier {
 public:
  struct Params {
    std::size_t max_rules_per_class = 12;
    std::size_t max_conditions_per_rule = 6;
    std::size_t thresholds_per_feature = 24;  ///< candidate split quantiles
    double prune_fraction = 1.0 / 3.0;        ///< held-out share for pruning
    double min_precision = 0.5;  ///< prune-set bar for accepting a rule
    std::uint64_t seed = 0x2f1b;
  };

  /// One antecedent: feature {<=,>} threshold.
  struct Condition {
    std::size_t feature = 0;
    bool greater = false;  ///< false: value <= threshold; true: value > threshold
    double threshold = 0.0;

    bool matches(std::span<const double> features) const {
      HMD_REQUIRE(feature < features.size(), "JRip: feature vector too short");
      const double v = features[feature];
      return greater ? v > threshold : v <= threshold;
    }
  };

  /// A conjunction of conditions implying a class.
  struct Rule {
    std::vector<Condition> conditions;
    std::size_t cls = 0;

    bool matches(std::span<const double> features) const {
      for (const Condition& c : conditions)
        if (!c.matches(features)) return false;
      return true;
    }
  };

  JRip() : JRip(Params{}) {}
  explicit JRip(Params params) : params_(params) {}

  void train(const DatasetView& data) override;
  std::size_t predict(std::span<const double> features) const override;
  /// Batch path: one-hot of predict() per row without per-row allocation.
  void distribution_batch(std::span<const double> flat,
                          std::size_t window_size,
                          std::span<double> out) const override {
    predict_one_hot_batch(flat, window_size, out);
  }
  std::string name() const override { return "JRip"; }
  std::size_t num_classes() const override { return num_classes_; }

  /// The ordered rule list (first match wins).
  const std::vector<Rule>& rules() const { return rules_; }
  /// Class predicted when no rule matches.
  std::size_t default_class() const { return default_class_; }
  /// Total number of conditions across all rules (hardware size proxy).
  std::size_t total_conditions() const;

 private:
  friend struct ModelIo;
  Params params_;
  std::size_t num_classes_ = 0;
  bool trained_ = false;
  std::vector<Rule> rules_;
  std::size_t default_class_ = 0;
};

}  // namespace hmd::ml
