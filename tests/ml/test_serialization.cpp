#include "ml/serialization.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>

#include "ml/registry.hpp"
#include "tests/ml/synthetic_data.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace hmd::ml {
namespace {

using namespace testdata;

/// Round-trip a trained model and check bit-identical predictions.
void expect_roundtrip(const std::string& scheme, const Dataset& train,
                      const Dataset& check) {
  auto original = make_classifier(scheme);
  original->train(train);

  std::ostringstream out;
  save_model(out, *original);
  std::istringstream in(out.str());
  const auto loaded = load_model(in);

  ASSERT_NE(loaded, nullptr) << scheme;
  EXPECT_EQ(loaded->name(), original->name());
  EXPECT_EQ(loaded->num_classes(), original->num_classes());
  for (std::size_t i = 0; i < check.num_instances(); ++i) {
    EXPECT_EQ(loaded->predict(check.features_of(i)),
              original->predict(check.features_of(i)))
        << scheme << " row " << i;
  }
}

class RoundTripSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(RoundTripSweep, BinaryPredictionsIdentical) {
  const Dataset d = overlapping_binary(250);
  expect_roundtrip(GetParam(), d, d);
}

TEST_P(RoundTripSweep, MulticlassPredictionsIdentical) {
  if (is_one_class_scheme(GetParam()))
    GTEST_SKIP() << "benign-only detectors are binary by construction";
  const Dataset d = three_class(120);
  expect_roundtrip(GetParam(), d, d);
}

// Every scheme the registry can construct must round-trip through the
// model format.
INSTANTIATE_TEST_SUITE_P(Schemes, RoundTripSweep,
                         ::testing::ValuesIn(known_schemes()));

/// 64-bit FNV-1a over the bytes of a saved model.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Pins the model format byte-for-byte: every registry scheme trained on a
// fixed fixture must save to exactly the same text. A format change (or a
// numeric drift in any fit) moves one of these constants.
TEST(Serialization, GoldenFingerprintPerScheme) {
  const std::map<std::string, std::uint64_t> golden = {
      {"ZeroR", 0xb999eb6dc64d0ebbull},
      {"OneR", 0x273d8d0a4a68c8d8ull},
      {"DecisionStump", 0xc51768ec50c1b3b8ull},
      {"J48", 0xe84a6f82fc8bb84cull},
      {"JRip", 0x35a2157440802f4dull},
      {"NaiveBayes", 0xf4a26854f539df82ull},
      {"MLR", 0x7b8aa3dee074d79bull},
      {"SVM", 0x60f55e3cb216611cull},
      {"MLP", 0x56615620385b18e4ull},
      {"IBk", 0x02a24f541d46bad2ull},
      {"AdaBoostM1", 0x82239e3f072afca3ull},
      {"Bagging", 0x175957264c048d3cull},
      {"OneClassSvm", 0x22da86d9225f4350ull},
      {"KdeAnomaly", 0xe33846481670fe8cull},
      {"MahalanobisThreshold", 0x5f58d481d0c3b7a6ull},
  };
  const Dataset d = overlapping_binary(120);
  EXPECT_EQ(golden.size(), known_schemes().size());
  for (const std::string& scheme : known_schemes()) {
    auto clf = make_classifier(scheme);
    clf->train(d);
    std::ostringstream out;
    save_model(out, *clf);
    const std::uint64_t got = fnv1a(out.str());
    const auto it = golden.find(scheme);
    ASSERT_NE(it, golden.end()) << scheme << " has no golden fingerprint";
    EXPECT_EQ(got, it->second)
        << scheme << ": 0x" << format("%016llx",
                                      static_cast<unsigned long long>(got));
  }
}

TEST(Serialization, DistributionsAlsoRoundTrip) {
  const Dataset d = three_class(100);
  auto original = make_classifier("MLP");
  original->train(d);
  std::ostringstream out;
  save_model(out, *original);
  std::istringstream in(out.str());
  const auto loaded = load_model(in);
  for (std::size_t i = 0; i < 20; ++i) {
    const auto a = original->distribution(d.features_of(i));
    const auto b = loaded->distribution(d.features_of(i));
    for (std::size_t c = 0; c < a.size(); ++c)
      EXPECT_DOUBLE_EQ(a[c], b[c]);
  }
}

TEST(Serialization, HeaderContainsSchemeAndVersion) {
  const Dataset d = separable_binary(50);
  auto clf = make_classifier("OneR");
  clf->train(d);
  std::ostringstream out;
  save_model(out, *clf);
  const std::string text = out.str();
  EXPECT_EQ(text.rfind("hmd-model v1\n", 0), 0u);
  EXPECT_NE(text.find("scheme OneR"), std::string::npos);
  EXPECT_NE(text.find("\nend\n"), std::string::npos);
}

TEST(Serialization, UntrainedModelThrows) {
  auto clf = make_classifier("J48");
  std::ostringstream out;
  EXPECT_THROW(save_model(out, *clf), PreconditionError);
}

/// A trained classifier the model format knows nothing about.
class Unserializable final : public Classifier {
 public:
  void train(const DatasetView&) override {}
  std::size_t predict(std::span<const double>) const override { return 0; }
  std::string name() const override { return "Unserializable"; }
  std::size_t num_classes() const override { return 2; }
};

TEST(Serialization, UnsupportedSchemeThrows) {
  Unserializable clf;
  std::ostringstream out;
  EXPECT_THROW(save_model(out, clf), PreconditionError);
}

TEST(Serialization, RejectsBadHeader) {
  std::istringstream in("not-a-model v9\n");
  EXPECT_THROW((void)load_model(in), ParseError);
}

TEST(Serialization, RejectsTruncatedInput) {
  const Dataset d = separable_binary(50);
  auto clf = make_classifier("JRip");
  clf->train(d);
  std::ostringstream out;
  save_model(out, *clf);
  const std::string text = out.str();
  std::istringstream in(text.substr(0, text.size() / 2));
  EXPECT_THROW((void)load_model(in), ParseError);
}

TEST(Serialization, RejectsUnknownScheme) {
  std::istringstream in("hmd-model v1\nscheme Quantum\nclasses 2\nend\n");
  EXPECT_THROW((void)load_model(in), ParseError);
}

TEST(Serialization, RetiredMahalanobisSchemeIsUnsupported) {
  // MahalanobisThreshold replaced the one-hot Mahalanobis scheme; its old
  // files fail through the unknown-scheme path.
  std::istringstream in(
      "hmd-model v1\nscheme Mahalanobis\nclasses 2\nmean 0x0p+0\n"
      "precision 1 1\nrow 0x1p+0\nthreshold 0x1p+0\nend\n");
  const auto result = try_load_model(in);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrCode::kParse);
  EXPECT_NE(result.error().message().find("unsupported scheme 'Mahalanobis'"),
            std::string::npos)
      << result.error().message();
}

// Files whose shapes would make a loaded model read out of bounds when it
// scores: each must fail at load with a kParse error naming the field.
TEST(Serialization, RejectsShapesThatCannotBeScored) {
  const std::string kStd4 =
      "standardizer_mean 0x0p+0 0x0p+0 0x0p+0 0x0p+0\n"
      "standardizer_sd 0x1p+0 0x1p+0 0x1p+0 0x1p+0\n";
  struct Case {
    const char* what;
    std::string body;  ///< everything between the header and "end"
    const char* field;
  };
  const std::vector<Case> cases = {
      {"MLR weight rows narrower than the standardizer",
       "scheme MLR\nclasses 2\n" + kStd4 +
           "weights 2 1\nrow 0x1p+0\nrow 0x1p+0\n",
       "'weights'"},
      {"SVM weight rows wider than the standardizer",
       "scheme SVM\nclasses 2\n" + kStd4 +
           "weights 2 6\nrow 0 0 0 0 0 0\nrow 0 0 0 0 0 0\n",
       "'weights'"},
      {"MLP w1 rows narrower than the standardizer",
       "scheme MLP\nclasses 2\n" + kStd4 +
           "w1 1 2\nrow 0 0\nw2 2 2\nrow 0 0\nrow 0 0\n",
       "'w1'"},
      {"MLP w2 rows not hidden units + 1",
       "scheme MLP\nclasses 2\n" + kStd4 +
           "w1 1 5\nrow 0 0 0 0 0\nw2 2 1\nrow 0\nrow 0\n",
       "'w2'"},
      {"NaiveBayes means and variances of different widths",
       "scheme NaiveBayes\nclasses 2\npriors 0x1p-1 0x1p-1\n"
       "means 2 3\nrow 0 0 0\nrow 0 0 0\n"
       "variances 2 2\nrow 0x1p+0 0x1p+0\nrow 0x1p+0 0x1p+0\n",
       "'variances'"},
      {"ZeroR majority class out of range",
       "scheme ZeroR\nclasses 2\nmajority 2\npriors 0x1p-1 0x1p-1\n",
       "'majority'"},
      {"OneR interval class out of range",
       "scheme OneR\nclasses 2\nfeature 0\ntraining_error 0\n"
       "intervals 1\ninterval inf 5\n",
       "'interval'"},
      {"DecisionStump branch class out of range",
       "scheme DecisionStump\nclasses 2\nsplit 0 0x0p+0 0 3\n", "'split'"},
      {"J48 leaf class out of range", "scheme J48\nclasses 2\nleaf 7 1 0\n",
       "'leaf'"},
      {"JRip default class out of range",
       "scheme JRip\nclasses 2\ndefault 2\nrules 0\n", "'default'"},
      {"JRip rule class out of range",
       "scheme JRip\nclasses 2\ndefault 0\nrules 1\nrule 9 0\n",
       "'rule'"},
  };
  for (const Case& c : cases) {
    std::istringstream in("hmd-model v1\n" + c.body + "end\n");
    const auto result = try_load_model(in);
    ASSERT_FALSE(result.ok()) << c.what;
    EXPECT_EQ(result.error().code(), ErrCode::kParse) << c.what;
    EXPECT_NE(result.error().message().find(c.field), std::string::npos)
        << c.what << ": " << result.error().message();
  }
}

// A NaN weight would make every window score P(malware) = NaN, which no
// threshold flags; a field without its value must fail naming the field.
// Both are parse errors at their line.
TEST(Serialization, RejectsNaNAndMissingValuesNamingLineAndField) {
  struct Case {
    const char* what;
    std::string text;
    const char* where;
  };
  const std::vector<Case> cases = {
      {"MLR weight row holding NaN",
       "hmd-model v1\nscheme MLR\nclasses 2\n"
       "standardizer_mean 0x0p+0 0x0p+0\nstandardizer_sd 0x1p+0 0x1p+0\n"
       "weights 2 3\nrow nan 0 0\nrow 0 0 0\nend\n",
       "model: line 7: 'weights': "},
      {"one-class threshold line without a value",
       "hmd-model v1\nscheme MahalanobisThreshold\nclasses 2\nmean 0x0p+0\n"
       "precision 1 1\nrow 0x1p+0\nthreshold\nscale 0x1p+0\nend\n",
       "model: line 7: 'threshold': "},
  };
  for (const Case& c : cases) {
    std::istringstream in(c.text);
    const auto result = try_load_model(in);
    ASSERT_FALSE(result.ok()) << c.what;
    EXPECT_EQ(result.error().code(), ErrCode::kParse) << c.what;
    EXPECT_EQ(result.error().message().rfind(c.where, 0), 0u)
        << c.what << ": " << result.error().message();
  }
}

// Counts that size what a loaded model allocates when it scores: the
// class count sizes every distribution, and IBk reserves k heap slots per
// query. Out-of-range values fail at load, naming the field.
TEST(Serialization, RejectsCountsThatSizeScoringAllocations) {
  const std::string kStd1 =
      "standardizer_mean 0x0p+0\nstandardizer_sd 0x1p+0\n";
  auto ibk = [&](const char* k) {
    return "hmd-model v1\nscheme IBk\nclasses 2\nk " + std::string(k) +
           "\n" + kStd1 + "labels 0 1\npoints 2 1\nrow 0x0p+0\nrow 0x1p+0\n"
           "end\n";
  };
  const std::pair<std::string, const char*> cases[] = {
      {"hmd-model v1\nscheme OneR\nclasses 4611686018427387904\n"
       "feature 0\ntraining_error 0x0p+0\nintervals 1\ninterval inf 0\n"
       "end\n",
       "model: line 3: 'classes': "},
      {ibk("0"), "model: line 7: 'k': "},
      {ibk("3"), "model: line 7: 'k': "},
  };
  for (const auto& [text, where] : cases) {
    std::istringstream in(text);
    const auto result = try_load_model(in);
    ASSERT_FALSE(result.ok()) << where;
    EXPECT_EQ(result.error().code(), ErrCode::kParse);
    EXPECT_EQ(result.error().message().rfind(where, 0), 0u)
        << result.error().message();
  }
  std::istringstream in(ibk("2"));
  const auto loaded = try_load_model(in);
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
}

// Each J48 node and each committee member is a recursion step in the
// loader and in the destructor; 10^5 nested levels overflowed the stack.
// The reader bounds nesting at 1000 levels.
TEST(Serialization, RejectsNestingPastTheReaderBound) {
  auto j48_chain = [](std::size_t splits) {
    std::string text = "hmd-model v1\nscheme J48\nclasses 2\n";
    for (std::size_t i = 0; i < splits; ++i)
      text += "split 0 0x0p+0 0 1 0\nleaf 0 1 0\n";
    return text + "leaf 0 1 0\nend\n";
  };
  auto bagging_chain = [](std::size_t levels) {
    std::string text = "hmd-model v1\nscheme Bagging\nclasses 2\n";
    for (std::size_t i = 0; i < levels; ++i)
      text += "members 1\nmember Bagging\n";
    return text + "members 1\nmember ZeroR\nmajority 0\n"
                  "priors 0x1p-1 0x1p-1\nend\n";
  };
  for (const std::string& deep_enough : {j48_chain(999), bagging_chain(999)}) {
    std::istringstream in(deep_enough);
    const auto loaded = try_load_model(in);
    ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
    std::ostringstream out;
    save_model(out, *loaded.value());
    EXPECT_EQ(out.str(), deep_enough);
  }
  const std::pair<std::string, const char*> too_deep[] = {
      {j48_chain(1000), "model: line 2003: 'split': "},
      {j48_chain(200000), "model: line 2003: 'split': "},
      {bagging_chain(1000), "model: line 2005: 'member': "},
      {bagging_chain(200000), "model: line 2005: 'member': "}};
  for (const auto& [text, where] : too_deep) {
    std::istringstream in(text);
    const auto result = try_load_model(in);
    ASSERT_FALSE(result.ok()) << where;
    EXPECT_EQ(result.error().code(), ErrCode::kParse);
    EXPECT_EQ(result.error().message().rfind(where, 0), 0u)
        << result.error().message();
  }
}

TEST(Serialization, LoadedJRipRejectsAConditionBeyondTheWindow) {
  std::istringstream in(
      "hmd-model v1\nscheme JRip\nclasses 2\ndefault 0\nrules 1\n"
      "rule 1 1\ncond 1000000 1 0x0p+0\nend\n");
  const auto model = load_model(in);
  const std::vector<double> window(16, 1.0);
  EXPECT_THROW((void)model->predict(window), PreconditionError);
}

TEST(Serialization, RejectsCorruptedNumbers) {
  std::istringstream in(
      "hmd-model v1\nscheme DecisionStump\nclasses 2\n"
      "split 0 not-a-number 0 1\nend\n");
  EXPECT_THROW((void)load_model(in), ParseError);
}

TEST(Serialization, LoadedModelSavesIdentically) {
  const Dataset d = overlapping_binary(150);
  auto original = make_classifier("J48");
  original->train(d);
  std::ostringstream first;
  save_model(first, *original);
  std::istringstream in(first.str());
  const auto loaded = load_model(in);
  std::ostringstream second;
  save_model(second, *loaded);
  EXPECT_EQ(first.str(), second.str());
}

}  // namespace
}  // namespace hmd::ml
