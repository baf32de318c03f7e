#include "ml/arff.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "tests/ml/synthetic_data.hpp"
#include "util/error.hpp"

namespace hmd::ml {
namespace {

TEST(Arff, WriteContainsHeaderSections) {
  const Dataset d = testdata::separable_binary(5);
  std::ostringstream out;
  write_arff(out, d);
  const std::string s = out.str();
  EXPECT_NE(s.find("@relation blobs"), std::string::npos);
  EXPECT_NE(s.find("@attribute 'f0' numeric"), std::string::npos);
  EXPECT_NE(s.find("@attribute 'class' {c0,c1}"), std::string::npos);
  EXPECT_NE(s.find("@data"), std::string::npos);
}

TEST(Arff, RoundTripPreservesData) {
  const Dataset d = testdata::three_class(20);
  std::ostringstream out;
  write_arff(out, d);
  std::istringstream in(out.str());
  const Dataset r = read_arff(in);
  ASSERT_EQ(r.num_instances(), d.num_instances());
  ASSERT_EQ(r.num_attributes(), d.num_attributes());
  EXPECT_EQ(r.num_classes(), 3u);
  for (std::size_t i = 0; i < d.num_instances(); ++i) {
    EXPECT_EQ(r.class_of(i), d.class_of(i));
    for (std::size_t f = 0; f < d.num_features(); ++f)
      EXPECT_NEAR(r.features_of(i)[f], d.features_of(i)[f], 1e-4);
  }
}

TEST(Arff, RoundTripIsBitIdentical) {
  // Values that six significant digits cannot hold must survive exactly.
  Dataset d({Attribute("f0"), Attribute("f1"),
             Attribute("class", {"benign", "malware"})},
            "exact");
  d.add(Instance{{0.1 + 1e-9, 1.0 / 3.0, 0.0}});
  d.add(Instance{{123456.789012345, -2.5e-300, 1.0}});
  std::ostringstream out;
  write_arff(out, d);
  std::istringstream in(out.str());
  const Dataset r = read_arff(in);
  ASSERT_EQ(r.num_instances(), d.num_instances());
  for (std::size_t i = 0; i < d.num_instances(); ++i) {
    EXPECT_EQ(r.class_of(i), d.class_of(i));
    for (std::size_t f = 0; f < d.num_features(); ++f)
      EXPECT_EQ(r.features_of(i)[f], d.features_of(i)[f])
          << "row " << i << " feature " << f;
  }
}

TEST(Arff, ParsesUnquotedAttributeNames) {
  std::istringstream in(
      "@relation t\n"
      "@attribute width numeric\n"
      "@attribute class {yes,no}\n"
      "@data\n"
      "1.5,yes\n");
  const Dataset d = read_arff(in);
  EXPECT_EQ(d.attribute(0).name(), "width");
  EXPECT_EQ(d.class_of(0), 0u);
}

TEST(Arff, SkipsCommentsAndBlankLines) {
  std::istringstream in(
      "% a comment\n"
      "@relation t\n"
      "\n"
      "@attribute f numeric\n"
      "@attribute class {a,b}\n"
      "@data\n"
      "% another\n"
      "2.0,b\n");
  const Dataset d = read_arff(in);
  EXPECT_EQ(d.num_instances(), 1u);
  EXPECT_EQ(d.class_of(0), 1u);
}

TEST(Arff, MissingDataSectionThrows) {
  std::istringstream in("@relation t\n@attribute f numeric\n");
  EXPECT_THROW(read_arff(in), ParseError);
}

TEST(Arff, NumericClassRejected) {
  std::istringstream in(
      "@relation t\n@attribute f numeric\n@attribute g numeric\n@data\n");
  EXPECT_THROW(read_arff(in), ParseError);
}

TEST(Arff, WrongFieldCountThrows) {
  std::istringstream in(
      "@relation t\n@attribute f numeric\n@attribute class {a,b}\n@data\n"
      "1.0,a,extra\n");
  EXPECT_THROW(read_arff(in), ParseError);
}

TEST(Arff, EmptyDataSectionThrows) {
  std::istringstream in(
      "@relation t\n@attribute f numeric\n@attribute class {a,b}\n@data\n");
  EXPECT_THROW(read_arff(in), ParseError);
}

TEST(Arff, CommentsOnlyDataSectionThrows) {
  std::istringstream in(
      "@relation t\n@attribute f numeric\n@attribute class {a,b}\n@data\n"
      "% no rows here\n");
  EXPECT_THROW(read_arff(in), ParseError);
}

TEST(Arff, TruncatedFileThrows) {
  // File cut off before the @data marker ever appears.
  std::istringstream in("@relation t\n@attribute f numeric\n@attribute cl");
  EXPECT_THROW(read_arff(in), ParseError);
}

TEST(Arff, TruncatedNominalSpecThrows) {
  std::istringstream in("@relation t\n@attribute class {a,b\n");
  EXPECT_THROW(read_arff(in), ParseError);
}

TEST(Arff, UnterminatedQuotedAttributeNameThrows) {
  std::istringstream in("@relation t\n@attribute 'oops numeric\n");
  EXPECT_THROW(read_arff(in), ParseError);
}

TEST(Arff, TooFewFieldsThrows) {
  std::istringstream in(
      "@relation t\n@attribute f numeric\n@attribute g numeric\n"
      "@attribute class {a,b}\n@data\n"
      "1.0,a\n");
  EXPECT_THROW(read_arff(in), ParseError);
}

TEST(Arff, NonNumericCellThrows) {
  std::istringstream in(
      "@relation t\n@attribute f numeric\n@attribute class {a,b}\n@data\n"
      "not_a_number,a\n");
  EXPECT_THROW(read_arff(in), ParseError);
}

TEST(Arff, NonFiniteCellThrows) {
  for (const char* cell : {"nan", "inf", "-inf"}) {
    std::istringstream in(
        std::string("@relation t\n@attribute f numeric\n"
                    "@attribute class {a,b}\n@data\n1.0,a\n") +
        cell + ",b\n");
    EXPECT_THROW(read_arff(in), ParseError) << cell;
  }
}

TEST(Arff, StrayHeaderGarbageThrows) {
  std::istringstream in("@relation t\nbogus line\n@data\n");
  EXPECT_THROW(read_arff(in), ParseError);
}

TEST(Arff, UnknownNominalValueThrows) {
  std::istringstream in(
      "@relation t\n@attribute f numeric\n@attribute class {a,b}\n@data\n"
      "1.0,z\n");
  EXPECT_THROW(read_arff(in), Error);
}

TEST(CsvBridge, DatasetFromCsvInfersClasses) {
  CsvTable table;
  table.header = {"f0", "f1", "class"};
  table.rows = {{"1.0", "2.0", "malware"},
                {"3.0", "4.0", "benign"},
                {"5.0", "6.0", "malware"}};
  const Dataset d = dataset_from_csv(table);
  EXPECT_EQ(d.num_classes(), 2u);
  // First-appearance order.
  EXPECT_EQ(d.class_attribute().values()[0], "malware");
  EXPECT_EQ(d.class_of(1), 1u);
  EXPECT_DOUBLE_EQ(d.features_of(2)[0], 5.0);
}

TEST(CsvBridge, ExplicitClassOrderRespected) {
  CsvTable table;
  table.header = {"f", "class"};
  table.rows = {{"1", "x"}};
  const Dataset d = dataset_from_csv(table, {"y", "x"});
  EXPECT_EQ(d.class_of(0), 1u);
}

TEST(CsvBridge, UnknownClassValueThrows) {
  CsvTable table;
  table.header = {"f", "class"};
  table.rows = {{"1", "zzz"}};
  EXPECT_THROW(dataset_from_csv(table, {"a", "b"}), Error);
}

TEST(CsvBridge, RoundTripThroughCsv) {
  const Dataset d = testdata::separable_binary(15);
  std::ostringstream out;
  write_dataset_csv(out, d);
  std::istringstream in(out.str());
  const CsvTable table = read_csv(in);
  const Dataset r = dataset_from_csv(table, {"c0", "c1"});
  ASSERT_EQ(r.num_instances(), d.num_instances());
  ASSERT_EQ(r.num_features(), d.num_features());
  for (std::size_t i = 0; i < d.num_instances(); ++i) {
    EXPECT_EQ(r.class_of(i), d.class_of(i));
    for (std::size_t f = 0; f < d.num_features(); ++f)
      EXPECT_EQ(r.features_of(i)[f], d.features_of(i)[f])
          << "row " << i << " feature " << f;
  }
}

TEST(CsvBridge, BadNumericCellThrows) {
  CsvTable table;
  table.header = {"f", "class"};
  table.rows = {{"abc", "a"}};
  EXPECT_THROW(dataset_from_csv(table), ParseError);
}

TEST(CsvBridge, NonFiniteCellThrows) {
  CsvTable table;
  table.header = {"f0", "f1", "class"};
  table.rows = {{"1.0", "2.0", "a"}, {"3.0", "NaN", "b"}};
  EXPECT_THROW(dataset_from_csv(table), ParseError);
}

}  // namespace
}  // namespace hmd::ml
