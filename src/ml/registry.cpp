#include "ml/registry.hpp"

#include <algorithm>

#include "ml/decision_stump.hpp"
#include "ml/ensemble.hpp"
#include "ml/j48.hpp"
#include "ml/jrip.hpp"
#include "ml/knn.hpp"
#include "ml/logistic.hpp"
#include "ml/mlp.hpp"
#include "ml/naive_bayes.hpp"
#include "ml/one_class.hpp"
#include "ml/one_r.hpp"
#include "ml/svm.hpp"
#include "ml/zero_r.hpp"
#include "util/error.hpp"

namespace hmd::ml {

namespace {

struct SchemeEntry {
  const char* name;
  const char* alias;  ///< nullptr when the scheme has no alias
  const char* description;
  std::unique_ptr<Classifier> (*make)();
  int binary_order;  ///< position in the Figs. 13-16 study list, -1 if absent
  int multi_order;   ///< position in the Figs. 17-19 study list, -1 if absent
  /// Benign-only scheme: trains on the benign rows of a binary dataset
  /// only, so the drift retrain loop can rebuild it from unlabeled
  /// traffic (serve/drift.hpp).
  bool one_class = false;
  /// hw::compile() has a netlist lowering for this scheme (RTL emission,
  /// netlist simulation, the fpga serving tier).
  bool rtl = false;
  /// Netlist class decisions are bit-identical to hw/evaluate_fixed_point
  /// (gated in tests/hw and bench_netlist). False for the LUT-approximated
  /// schemes (NaiveBayes, MLP).
  bool rtl_exact = false;
};

// Registry order is presentation order (--list-classifiers, error
// messages); binary_order/multi_order preserve the thesis's study-table
// column order independently of it.
constexpr int kNone = -1;
const SchemeEntry kSchemes[] = {
    {"ZeroR", nullptr, "majority-class baseline",
     [] { return std::unique_ptr<Classifier>(std::make_unique<ZeroR>()); },
     kNone, kNone},
    {"OneR", nullptr, "single-feature rule learner",
     [] { return std::unique_ptr<Classifier>(std::make_unique<OneR>()); }, 0,
     kNone, false, true, true},
    {"DecisionStump", nullptr, "one-split decision tree",
     [] {
       return std::unique_ptr<Classifier>(std::make_unique<DecisionStump>());
     },
     kNone, kNone, false, true, true},
    {"J48", nullptr, "C4.5 decision tree",
     [] { return std::unique_ptr<Classifier>(std::make_unique<J48>()); }, 2,
     kNone, false, true, true},
    {"JRip", nullptr, "RIPPER rule learner",
     [] { return std::unique_ptr<Classifier>(std::make_unique<JRip>()); }, 1,
     kNone, false, true, true},
    {"NaiveBayes", nullptr, "Gaussian naive Bayes",
     [] {
       return std::unique_ptr<Classifier>(std::make_unique<NaiveBayes>());
     },
     3, kNone, false, true, false},
    {"MLR", "Logistic", "multinomial logistic regression",
     [] { return std::unique_ptr<Classifier>(std::make_unique<Logistic>()); },
     4, 0, false, true, true},
    {"SVM", nullptr, "linear soft-margin SVM",
     [] { return std::unique_ptr<Classifier>(std::make_unique<LinearSvm>()); },
     5, 2, false, true, true},
    {"MLP", nullptr, "multi-layer perceptron",
     [] { return std::unique_ptr<Classifier>(std::make_unique<Mlp>()); }, 6,
     1, false, true, false},
    {"IBk", nullptr, "k-nearest neighbours",
     [] { return std::unique_ptr<Classifier>(std::make_unique<Knn>()); },
     kNone, kNone},
    {"AdaBoostM1", nullptr, "boosted decision stumps",
     [] {
       return std::unique_ptr<Classifier>(std::make_unique<AdaBoostM1>(
           [] { return std::make_unique<DecisionStump>(); }));
     },
     kNone, kNone},
    {"Bagging", nullptr, "bagged J48 trees",
     [] {
       return std::unique_ptr<Classifier>(
           std::make_unique<Bagging>([]() -> std::unique_ptr<Classifier> {
             return std::make_unique<J48>();
           }));
     },
     kNone, kNone},
    {"OneClassSvm", nullptr,
     "one-class SVM margin over benign windows (binary datasets)",
     [] {
       return std::unique_ptr<Classifier>(std::make_unique<OneClassSvm>());
     },
     kNone, kNone, true},
    {"KdeAnomaly", nullptr,
     "benign kernel-density anomaly threshold (binary datasets)",
     [] {
       return std::unique_ptr<Classifier>(std::make_unique<KdeAnomaly>());
     },
     kNone, kNone, true},
    {"MahalanobisThreshold", nullptr,
     "calibrated Mahalanobis-distance threshold (binary datasets)",
     [] {
       return std::unique_ptr<Classifier>(
           std::make_unique<MahalanobisThreshold>());
     },
     kNone, kNone, true},
};

const SchemeEntry* find_scheme(const std::string& name) {
  for (const SchemeEntry& entry : kSchemes) {
    if (name == entry.name ||
        (entry.alias != nullptr && name == entry.alias))
      return &entry;
  }
  return nullptr;
}

/// Schemes with `order` >= 0 via the given member, sorted by that order.
std::vector<std::string> study_list(int SchemeEntry::* order) {
  std::vector<const SchemeEntry*> picked;
  for (const SchemeEntry& entry : kSchemes)
    if (entry.*order >= 0) picked.push_back(&entry);
  std::sort(picked.begin(), picked.end(),
            [order](const SchemeEntry* a, const SchemeEntry* b) {
              return a->*order < b->*order;
            });
  std::vector<std::string> names;
  names.reserve(picked.size());
  for (const SchemeEntry* entry : picked) names.emplace_back(entry->name);
  return names;
}

}  // namespace

std::unique_ptr<Classifier> make_classifier(const std::string& name) {
  if (const SchemeEntry* entry = find_scheme(name)) return entry->make();
  std::string message = "unknown classifier scheme: " + name + " (known:";
  for (const SchemeEntry& entry : kSchemes)
    message += std::string(" ") + entry.name;
  message += ")";
  throw PreconditionError(message);
}

std::vector<std::string> known_schemes() {
  std::vector<std::string> names;
  names.reserve(std::size(kSchemes));
  for (const SchemeEntry& entry : kSchemes) names.emplace_back(entry.name);
  return names;
}

std::string scheme_description(const std::string& name) {
  const SchemeEntry* entry = find_scheme(name);
  return entry != nullptr ? entry->description : "";
}

bool is_known_scheme(const std::string& name) {
  return find_scheme(name) != nullptr;
}

std::vector<std::string> one_class_schemes() {
  std::vector<std::string> names;
  for (const SchemeEntry& entry : kSchemes)
    if (entry.one_class) names.emplace_back(entry.name);
  return names;
}

bool is_one_class_scheme(const std::string& name) {
  const SchemeEntry* entry = find_scheme(name);
  return entry != nullptr && entry->one_class;
}

std::vector<std::string> rtl_schemes() {
  std::vector<std::string> names;
  for (const SchemeEntry& entry : kSchemes)
    if (entry.rtl) names.emplace_back(entry.name);
  return names;
}

std::vector<std::string> rtl_exact_schemes() {
  std::vector<std::string> names;
  for (const SchemeEntry& entry : kSchemes)
    if (entry.rtl_exact) names.emplace_back(entry.name);
  return names;
}

bool is_rtl_scheme(const std::string& name) {
  const SchemeEntry* entry = find_scheme(name);
  return entry != nullptr && entry->rtl;
}

std::vector<std::string> binary_study_classifiers() {
  return study_list(&SchemeEntry::binary_order);
}

std::vector<std::string> multiclass_study_classifiers() {
  return study_list(&SchemeEntry::multi_order);
}

}  // namespace hmd::ml
