#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "ml/evaluation.hpp"
#include "ml/j48.hpp"
#include "ml/jrip.hpp"
#include "ml/zero_r.hpp"
#include "tests/ml/jrip_reference.hpp"
#include "tests/ml/synthetic_data.hpp"
#include "util/error.hpp"

namespace hmd::ml {
namespace {

using namespace testdata;

TEST(J48, AccurateOnSeparableBlobs) {
  const Dataset d = separable_binary();
  J48 tree;
  tree.train(d);
  EXPECT_GT(evaluate(tree, d).accuracy(), 0.97);
}

TEST(J48, SolvesXor) {
  const Dataset d = xor_problem();
  J48 tree;
  tree.train(d);
  EXPECT_GT(evaluate(tree, d).accuracy(), 0.95);
}

TEST(J48, GeneralizesOnHeldOutData) {
  Dataset d = separable_binary(400);
  Rng rng(3);
  const auto [train, test] = d.stratified_split(0.7, rng);
  J48 tree;
  tree.train(train);
  EXPECT_GT(evaluate(tree, test).accuracy(), 0.95);
}

TEST(J48, PruningShrinksTree) {
  const Dataset d = overlapping_binary(400);
  J48 pruned({.min_leaf = 2, .prune = true});
  J48 unpruned({.min_leaf = 2, .prune = false});
  pruned.train(d);
  unpruned.train(d);
  EXPECT_LE(pruned.num_leaves(), unpruned.num_leaves());
}

TEST(J48, MinLeafLimitsGrowth) {
  const Dataset d = overlapping_binary(400);
  J48 fine({.min_leaf = 2, .prune = false});
  J48 coarse({.min_leaf = 50, .prune = false});
  fine.train(d);
  coarse.train(d);
  EXPECT_LT(coarse.num_leaves(), fine.num_leaves());
}

TEST(J48, MaxDepthRespected) {
  const Dataset d = overlapping_binary(400);
  J48 shallow({.min_leaf = 2, .max_depth = 3, .prune = false});
  shallow.train(d);
  EXPECT_LE(shallow.depth(), 3u);
}

TEST(J48, PureDataGivesSingleLeaf) {
  std::vector<Attribute> attrs;
  attrs.emplace_back("f");
  attrs.emplace_back("class", std::vector<std::string>{"a", "b"});
  Dataset d(std::move(attrs));
  for (int i = 0; i < 30; ++i) d.add({{static_cast<double>(i), 0.0}});
  J48 tree;
  tree.train(d);
  EXPECT_EQ(tree.num_leaves(), 1u);
  EXPECT_TRUE(tree.root().is_leaf());
}

TEST(J48, NodeCountConsistency) {
  const Dataset d = separable_binary();
  J48 tree;
  tree.train(d);
  // Binary tree: nodes = 2*leaves - 1.
  EXPECT_EQ(tree.num_nodes(), 2 * tree.num_leaves() - 1);
}

TEST(J48, MulticlassWorks) {
  const Dataset d = three_class();
  J48 tree;
  tree.train(d);
  EXPECT_GT(evaluate(tree, d).accuracy(), 0.95);
}

TEST(J48, PredictBeforeTrainThrows) {
  J48 tree;
  EXPECT_THROW((void)tree.predict(std::vector<double>{1.0}),
               PreconditionError);
}

TEST(PessimisticError, UpperBoundExceedsObserved) {
  EXPECT_GT(pessimistic_error_count(100, 10, 0.25), 10.0);
  EXPECT_GT(pessimistic_error_count(10, 0, 0.25), 0.0);
}

TEST(PessimisticError, TightensWithMoreData) {
  const double small = pessimistic_error_count(10, 1, 0.25) / 10.0;
  const double large = pessimistic_error_count(1000, 100, 0.25) / 1000.0;
  EXPECT_GT(small, large);
}

TEST(PessimisticError, ZeroInstancesIsZero) {
  EXPECT_EQ(pessimistic_error_count(0, 0, 0.25), 0.0);
}

TEST(JRip, AccurateOnSeparableBlobs) {
  const Dataset d = separable_binary();
  JRip rip;
  rip.train(d);
  EXPECT_GT(evaluate(rip, d).accuracy(), 0.95);
}

TEST(JRip, ProducesCompactRuleList) {
  const Dataset d = separable_binary();
  JRip rip;
  rip.train(d);
  EXPECT_GE(rip.rules().size(), 1u);
  EXPECT_LE(rip.rules().size(), 6u);
  EXPECT_LE(rip.total_conditions(), 20u);
}

TEST(JRip, RulesTargetMinorityClassesFirst) {
  // RIPPER learns classes in ascending frequency; the most frequent class
  // becomes the default.
  Dataset d = blobs(2, 3, 50, 4.0, 0.8, 12);
  for (int i = 0; i < 150; ++i) d.add({{0.0, 0.0, 0.0, 0.0}});  // bulk class 0
  JRip rip;
  rip.train(d);
  EXPECT_EQ(rip.default_class(), 0u);
  for (const auto& rule : rip.rules()) EXPECT_EQ(rule.cls, 1u);
}

TEST(JRip, GeneralizesOnHeldOutData) {
  Dataset d = separable_binary(400);
  Rng rng(7);
  const auto [train, test] = d.stratified_split(0.7, rng);
  JRip rip;
  rip.train(train);
  EXPECT_GT(evaluate(rip, test).accuracy(), 0.93);
}

TEST(JRip, SolvesXor) {
  // Rules with two conditions each can box the XOR quadrants.
  const Dataset d = xor_problem();
  JRip rip;
  rip.train(d);
  EXPECT_GT(evaluate(rip, d).accuracy(), 0.9);
}

TEST(JRip, MulticlassRuleLists) {
  const Dataset d = three_class();
  JRip rip;
  rip.train(d);
  EXPECT_GT(evaluate(rip, d).accuracy(), 0.9);
}

TEST(JRip, ConditionMatchSemantics) {
  JRip::Condition le{.feature = 0, .greater = false, .threshold = 5.0};
  JRip::Condition gt{.feature = 0, .greater = true, .threshold = 5.0};
  const std::vector<double> low = {4.0};
  const std::vector<double> high = {6.0};
  EXPECT_TRUE(le.matches(low));
  EXPECT_FALSE(le.matches(high));
  EXPECT_FALSE(gt.matches(low));
  EXPECT_TRUE(gt.matches(high));
}

TEST(JRip, RuleConjunctionSemantics) {
  JRip::Rule rule;
  rule.cls = 1;
  rule.conditions = {{.feature = 0, .greater = true, .threshold = 1.0},
                     {.feature = 1, .greater = false, .threshold = 3.0}};
  EXPECT_TRUE(rule.matches(std::vector<double>{2.0, 2.0}));
  EXPECT_FALSE(rule.matches(std::vector<double>{0.5, 2.0}));
  EXPECT_FALSE(rule.matches(std::vector<double>{2.0, 4.0}));
}

TEST(JRip, ConditionBeyondTheWindowThrows) {
  // J48, OneR and DecisionStump check the window width; so must JRip.
  const JRip::Condition far{.feature = 3, .greater = true, .threshold = 0.0};
  EXPECT_THROW((void)far.matches(std::vector<double>{1.0, 2.0}),
               PreconditionError);

  JRip rip;
  rip.train(blobs(2, 16, 80, 4.0, 1.0, 21));
  ASSERT_FALSE(rip.rules().empty());
  ASSERT_FALSE(rip.rules().front().conditions.empty());
  // Narrow enough that the first condition evaluated is out of range.
  const std::vector<double> narrow(
      rip.rules().front().conditions.front().feature, 0.0);
  EXPECT_THROW((void)rip.predict(narrow), PreconditionError);
}

TEST(JRip, PredictBeforeTrainThrows) {
  JRip rip;
  EXPECT_THROW((void)rip.predict(std::vector<double>{1.0}),
               PreconditionError);
}

TEST(JRip, BeatsZeroROnImbalancedSeparableData) {
  Dataset d = blobs(2, 3, 60, 5.0, 0.5, 9);
  for (int i = 0; i < 240; ++i) d.add({{0.0, 0.0, 0.0, 0.0}});
  JRip rip;
  ZeroR z;
  rip.train(d);
  z.train(d);
  EXPECT_GT(evaluate(rip, d).accuracy(), evaluate(z, d).accuracy());
}

/// Copy of `d` with every feature cell replaced by cell(row, feature, value).
template <class CellFn>
Dataset map_cells(const Dataset& d, CellFn cell) {
  Dataset out(d.attributes(), d.relation());
  for (std::size_t i = 0; i < d.num_instances(); ++i) {
    const auto src = d.row(i);
    std::vector<double> row(src.begin(), src.end());
    for (std::size_t f = 0; f < d.num_features(); ++f)
      row[f] = cell(i, f, row[f]);
    out.add_row(row);
  }
  return out;
}

/// The rule list, rule by rule and condition by condition, with thresholds
/// compared by bit pattern.
void expect_same_model(const JRip& rip,
                       const testref::JRipReferenceModel& ref) {
  ASSERT_EQ(rip.rules().size(), ref.rules.size());
  for (std::size_t i = 0; i < ref.rules.size(); ++i) {
    const JRip::Rule& got = rip.rules()[i];
    const JRip::Rule& want = ref.rules[i];
    EXPECT_EQ(got.cls, want.cls) << "rule " << i;
    ASSERT_EQ(got.conditions.size(), want.conditions.size()) << "rule " << i;
    for (std::size_t c = 0; c < want.conditions.size(); ++c) {
      EXPECT_EQ(got.conditions[c].feature, want.conditions[c].feature)
          << "rule " << i << " condition " << c;
      EXPECT_EQ(got.conditions[c].greater, want.conditions[c].greater)
          << "rule " << i << " condition " << c;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.conditions[c].threshold),
                std::bit_cast<std::uint64_t>(want.conditions[c].threshold))
          << "rule " << i << " condition " << c;
    }
  }
  EXPECT_EQ(rip.default_class(), ref.default_class);
}

void expect_matches_reference(const DatasetView& data,
                              JRip::Params params = {}) {
  JRip rip(params);
  rip.train(data);
  ASSERT_FALSE(rip.rules().empty());
  expect_same_model(rip, testref::train_jrip_reference(data, params));
}

TEST(JRip, TrainMatchesPerThresholdReference) {
  {
    SCOPED_TRACE("more than 512 grow rows: sampled candidates");
    const Dataset d = blobs(2, 6, 600, 1.0, 1.5, 31);
    expect_matches_reference(d);
    std::vector<std::size_t> odd(d.num_instances() / 2);
    std::iota(odd.begin(), odd.end(), 0);
    for (std::size_t& r : odd) r = 2 * r + 1;
    expect_matches_reference(DatasetView(d).select(odd));
  }
  {
    SCOPED_TRACE("heavy ties: every cell on a half-unit grid");
    const Dataset d = map_cells(
        blobs(2, 4, 400, 1.0, 1.5, 32),
        [](std::size_t, std::size_t, double v) {
          return std::round(v * 2.0) / 2.0;
        });
    expect_matches_reference(d);
    expect_matches_reference(d, {.thresholds_per_feature = 48});
  }
  {
    SCOPED_TRACE("signed zeros and infinities");
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const Dataset d = map_cells(
        blobs(2, 4, 400, 1.0, 1.5, 33),
        [](std::size_t r, std::size_t f, double v) {
          switch ((r * 7 + f * 3) % 13) {
            case 0: return -0.0;
            case 1: return 0.0;
            case 2: return kInf;
            case 3: return -kInf;
            default: return v;
          }
        });
    expect_matches_reference(d);
  }
  {
    SCOPED_TRACE("four classes");
    expect_matches_reference(blobs(4, 5, 200, 2.0, 1.0, 34));
  }
  {
    SCOPED_TRACE("golden fixture");
    expect_matches_reference(overlapping_binary(120));
  }
}

TEST(JRip, NaNCellsAreNeverThresholds) {
  // A Dataset built in code may hold NaN. Candidate thresholds skip NaN
  // cells, and a NaN row falls on neither side of any condition.
  const Dataset d = map_cells(
      blobs(2, 4, 400, 1.0, 1.5, 35),
      [](std::size_t r, std::size_t f, double v) {
        return f == 1 && r % 3 == 0 ? std::numeric_limits<double>::quiet_NaN()
                                    : v;
      });
  JRip first;
  first.train(d);
  JRip second;
  second.train(d);
  ASSERT_FALSE(first.rules().empty());
  expect_same_model(first,
                    {.rules = second.rules(),
                     .default_class = second.default_class()});
  expect_same_model(first, testref::train_jrip_reference(d, {}));
  for (const JRip::Rule& rule : first.rules())
    for (const JRip::Condition& c : rule.conditions)
      EXPECT_FALSE(std::isnan(c.threshold));
}

// Both tree/rule learners stay sane across class counts.
class TreeRuleClassCountSweep : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(TreeRuleClassCountSweep, J48AndJRipHandleKClasses) {
  const std::size_t k = GetParam();
  const Dataset d = blobs(k, 4, 60, 4.0, 0.8, k);
  J48 tree;
  tree.train(d);
  JRip rip;
  rip.train(d);
  EXPECT_GT(evaluate(tree, d).accuracy(), 0.9);
  EXPECT_GT(evaluate(rip, d).accuracy(), 0.85);
}

INSTANTIATE_TEST_SUITE_P(ClassCounts, TreeRuleClassCountSweep,
                         ::testing::Values(2u, 3u, 4u, 6u));

}  // namespace
}  // namespace hmd::ml
