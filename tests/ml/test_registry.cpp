#include "ml/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "ml/evaluation.hpp"
#include "tests/ml/synthetic_data.hpp"
#include "util/error.hpp"

namespace hmd::ml {
namespace {

TEST(Registry, KnownSchemesListsFifteenCanonicalNames) {
  const auto schemes = known_schemes();
  EXPECT_EQ(schemes.size(), 15u);
  // No duplicates, no aliases.
  auto sorted = schemes;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
  EXPECT_EQ(std::count(schemes.begin(), schemes.end(), "Logistic"), 0);
  // Every listed scheme constructs.
  for (const auto& name : schemes) {
    const auto clf = make_classifier(name);
    ASSERT_NE(clf, nullptr) << name;
    EXPECT_EQ(clf->name(), name);
  }
}

TEST(Registry, IsKnownSchemeAcceptsCanonicalAndAlias) {
  EXPECT_TRUE(is_known_scheme("MLR"));
  EXPECT_TRUE(is_known_scheme("Logistic"));  // alias of MLR
  EXPECT_TRUE(is_known_scheme("J48"));
  EXPECT_FALSE(is_known_scheme("RandomForest"));
  EXPECT_FALSE(is_known_scheme(""));
}

TEST(Registry, AliasConstructsSameSchemeAsCanonicalName) {
  const auto canonical = make_classifier("MLR");
  const auto alias = make_classifier("Logistic");
  EXPECT_EQ(canonical->name(), alias->name());
}

TEST(Registry, DescriptionsExistForEveryScheme) {
  for (const auto& name : known_schemes())
    EXPECT_FALSE(scheme_description(name).empty()) << name;
  EXPECT_TRUE(scheme_description("NotAScheme").empty());
}

TEST(Registry, UnknownSchemeErrorListsAllKnownNames) {
  try {
    (void)make_classifier("Bogus");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("Bogus"), std::string::npos);
    for (const auto& name : known_schemes())
      EXPECT_NE(what.find(name), std::string::npos) << name;
  }
}

TEST(Registry, UnknownSchemeErrorEnumeratesExactlyTheRegistry) {
  // Completeness cross-check: the "(known: ...)" list in the error message
  // must be exactly known_schemes() — a scheme added to the table but
  // missed in the error (or vice versa) fails here, not in a user report.
  std::string what;
  try {
    (void)make_classifier("Bogus");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    what = e.what();
  }
  const auto open = what.find("known:");
  ASSERT_NE(open, std::string::npos) << what;
  const auto close = what.find(')', open);
  ASSERT_NE(close, std::string::npos) << what;
  const std::string list = what.substr(open + 6, close - open - 6);
  std::vector<std::string> advertised;
  std::istringstream words(list);
  std::string word;
  while (words >> word) advertised.push_back(word);
  EXPECT_EQ(advertised, known_schemes());
}

TEST(Registry, OneClassSchemesAreFlaggedAndConstructible) {
  const std::vector<std::string> expected = {"OneClassSvm", "KdeAnomaly",
                                             "MahalanobisThreshold"};
  EXPECT_EQ(one_class_schemes(), expected);
  for (const auto& name : expected) {
    EXPECT_TRUE(is_one_class_scheme(name)) << name;
    EXPECT_TRUE(is_known_scheme(name)) << name;
    const auto clf = make_classifier(name);
    ASSERT_NE(clf, nullptr) << name;
    EXPECT_EQ(clf->name(), name);
    EXPECT_FALSE(scheme_description(name).empty()) << name;
  }
  EXPECT_FALSE(is_one_class_scheme("MLR"));
  EXPECT_FALSE(is_one_class_scheme("SVM"));
  EXPECT_FALSE(is_one_class_scheme("NotAScheme"));
}

TEST(Registry, StudyListsAreSubsetsOfKnownSchemes) {
  const auto schemes = known_schemes();
  for (const auto& name : binary_study_classifiers())
    EXPECT_TRUE(std::count(schemes.begin(), schemes.end(), name)) << name;
  for (const auto& name : multiclass_study_classifiers())
    EXPECT_TRUE(std::count(schemes.begin(), schemes.end(), name)) << name;
}

TEST(Registry, EverySchemeReportsThroughEvaluationReport) {
  // The unified evaluation artifact must work for every scheme, not just
  // the study subsets (the one-class family trains on the benign class
  // only, the ensembles resample — evaluate() must not care).
  const Dataset d = testdata::separable_binary(60);
  for (const auto& name : known_schemes()) {
    auto clf = make_classifier(name);
    clf->train(d);
    const EvaluationReport report = evaluate(*clf, d);
    EXPECT_EQ(report.scheme, name);
    EXPECT_EQ(report.total(), d.num_instances()) << name;
    EXPECT_GE(report.predict_seconds, 0.0) << name;
    EXPECT_EQ(report.num_classes(), 2u) << name;
  }
}

/// Trains `name` on `data` and checks that one distribution_batch call over
/// `rows` rows (cycling through the data) is bit-identical to the per-row
/// distribution() loop.
void expect_batch_matches_per_row(const std::string& name,
                                  const Dataset& data, std::size_t rows) {
  const std::size_t d = data.num_features();
  std::vector<double> flat;
  for (std::size_t r = 0; r < rows; ++r) {
    const auto f = data.features_of(r % data.num_instances());
    flat.insert(flat.end(), f.begin(), f.end());
  }
  const auto clf = make_classifier(name);
  clf->train(data);
  const std::size_t k = clf->num_classes();
  std::vector<double> batch(rows * k);
  clf->distribution_batch(flat, d, batch);
  for (std::size_t r = 0; r < rows; ++r) {
    const auto one =
        clf->distribution(std::span<const double>(flat.data() + r * d, d));
    ASSERT_EQ(one.size(), k) << name;
    for (std::size_t c = 0; c < k; ++c)
      ASSERT_EQ(batch[r * k + c], one[c])
          << name << " row " << r << " class " << c;
  }
}

TEST(Registry, BatchOverridesMatchPerRowScoringForEveryScheme) {
  // Several schemes override distribution_batch with buffer-reusing or
  // GEMM paths; the contract across ALL fifteen is bit-identity with the
  // per-row distribution() loop, whatever path the scheme takes. The GEMM
  // paths (MLR, SVM, MLP) work in 128-row chunks, so the batch spans two
  // full chunks and a partial tail.
  constexpr std::size_t kRows = 2 * 128 + 37;
  // Binary pass: every scheme, the one-class anomaly schemes included.
  const auto binary = testdata::separable_binary(80);
  for (const auto& name : known_schemes())
    expect_batch_matches_per_row(name, binary, kRows);
  // Multiclass pass in the thesis dataset's shape (16 counters, 6
  // classes). The one-class schemes refuse multiclass sets.
  const auto multiclass = testdata::blobs(6, 16, 50, 2.0, 1.5, 31);
  for (const auto& name : known_schemes())
    if (!is_one_class_scheme(name))
      expect_batch_matches_per_row(name, multiclass, kRows);
}

TEST(Registry, StudyListsPreserveThesisOrdering) {
  // Figs. 13-16 compare these schemes in this order; the multiclass study
  // (Figs. 17-19) uses MLR, MLP, SVM.
  const std::vector<std::string> binary = {
      "OneR", "JRip", "J48", "NaiveBayes", "MLR", "SVM", "MLP"};
  EXPECT_EQ(binary_study_classifiers(), binary);
  const std::vector<std::string> multi = {"MLR", "MLP", "SVM"};
  EXPECT_EQ(multiclass_study_classifiers(), multi);
}

}  // namespace
}  // namespace hmd::ml
