// The KD-tree index is an accelerator, not an approximation: every IBk
// verdict (distributions included, ties included) must be bit-identical
// to the plain brute-force scan in tests/ml/knn_reference.hpp. This suite
// scores the same queries through both over stores of every size class —
// a single leaf, a few leaves, many leaves, k up to the store size, and
// tie-heavy integer-lattice data where the k-th distance is massively
// degenerate — and pins the equivalence.
#include "ml/knn.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <cstdint>
#include <limits>
#include <sstream>
#include <tuple>
#include <vector>

#include "ml/kernels.hpp"
#include "ml/serialization.hpp"
#include "tests/ml/knn_reference.hpp"
#include "tests/ml/synthetic_data.hpp"
#include "util/rng.hpp"

namespace hmd::ml {
namespace {

/// FNV-1a over argmax + full distributions — any bit flip shows up.
std::uint64_t fingerprint(std::span<const double> dists,
                          std::size_t num_classes) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (std::size_t r = 0; r * num_classes < dists.size(); ++r) {
    std::size_t arg = 0;
    for (std::size_t c = 1; c < num_classes; ++c)
      if (dists[r * num_classes + c] > dists[r * num_classes + arg]) arg = c;
    mix(arg);
    for (std::size_t c = 0; c < num_classes; ++c) {
      std::uint64_t bits;
      static_assert(sizeof(bits) == sizeof(double));
      std::memcpy(&bits, &dists[r * num_classes + c], sizeof(bits));
      mix(bits);
    }
  }
  return h;
}

/// Scores `queries` through the model and through the brute-force
/// reference over `data` (the model's training set) and asserts they
/// agree to the last bit.
void expect_matches_brute(const Knn& model, const DatasetView& data,
                          std::size_t k, const std::vector<double>& queries,
                          std::size_t width) {
  const testref::KnnReference brute_force(data, k);
  const std::size_t rows = queries.size() / width;
  const std::size_t classes = model.num_classes();
  ASSERT_EQ(brute_force.num_classes(), classes);
  std::vector<double> got(rows * classes), want(rows * classes);
  model.distribution_batch(queries, width, got);
  brute_force.distribution_batch(queries, width, want);
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << "index vs brute, flat " << i;
  EXPECT_EQ(fingerprint(got, classes), fingerprint(want, classes));
}

/// Gaussian store of several leaves.
Dataset big_blobs(std::size_t per_class, std::uint64_t seed) {
  return testdata::blobs(4, 8, per_class, 2.0, 1.5, seed);
}

/// Copy of `data` with some feature cells replaced: each entry is
/// (row, feature, value).
Dataset with_cells(
    const Dataset& data,
    const std::vector<std::tuple<std::size_t, std::size_t, double>>& cells) {
  Dataset out(data.attributes(), data.relation());
  for (std::size_t i = 0; i < data.num_instances(); ++i) {
    std::vector<double> row(data.row(i).begin(), data.row(i).end());
    for (const auto& [r, f, v] : cells)
      if (r == i) row[f] = v;
    out.add_row(row);
  }
  return out;
}

std::vector<double> random_queries(std::size_t rows, std::size_t d,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> q(rows * d);
  for (double& v : q) v = rng.normal(3.0, 3.0);
  return q;
}

TEST(KnnIndex, BigStoreBuildsIndexAndMatchesBruteBitForBit) {
  const std::size_t per_class = kernels::kLeafBlock;  // 4 classes: 4 leaves
  Knn model(5);
  const auto data = big_blobs(per_class, 17);
  model.train(data);
  ASSERT_TRUE(model.has_index());
  expect_matches_brute(model, data, 5, random_queries(300, 8, 18), 8);

  // The thesis dataset's shape: 16 counters, 6 classes, 3 leaves.
  Knn thesis(5);
  const auto thesis_data =
      testdata::blobs(6, 16, kernels::kLeafBlock / 2, 2.0, 1.5, 19);
  thesis.train(thesis_data);
  ASSERT_TRUE(thesis.has_index());
  expect_matches_brute(thesis, thesis_data, 5, random_queries(300, 16, 20),
                       16);
}

TEST(KnnIndex, SingleLeafStoreMatchesBruteBitForBit) {
  // Below kLeafBlock points the whole store is the root leaf.
  const auto data = testdata::three_class(40);
  ASSERT_LT(data.num_instances(), kernels::kLeafBlock);
  Knn model(3);
  model.train(data);
  EXPECT_TRUE(model.has_index());
  expect_matches_brute(model, data, 3, random_queries(200, 5, 41), 5);
}

TEST(KnnIndex, TwoLeafStoreMatchesBruteBitForBit) {
  // Between 1x and 2x kLeafBlock: one split, two leaves.
  const std::size_t n = kernels::kLeafBlock + kernels::kLeafBlock / 2;
  const auto data = testdata::blobs(3, 6, n / 3, 2.0, 1.5, 43);
  ASSERT_GT(data.num_instances(), kernels::kLeafBlock);
  ASSERT_LT(data.num_instances(), 2 * kernels::kLeafBlock);
  Knn model(5);
  model.train(data);
  EXPECT_TRUE(model.has_index());
  expect_matches_brute(model, data, 5, random_queries(300, 6, 44), 6);
}

TEST(KnnIndex, LargeKMatchesBruteBitForBit) {
  // k * 4 >= n: the k-th distance reaches far across the store, so most
  // boxes cannot be pruned.
  const auto data = testdata::blobs(3, 4, 40, 2.0, 1.5, 47);
  const std::size_t n = data.num_instances();
  Knn model(n / 3);
  model.train(data);
  EXPECT_TRUE(model.has_index());
  expect_matches_brute(model, data, n / 3, random_queries(200, 4, 48), 4);

  // The same on a store of several leaves.
  const auto big = big_blobs(kernels::kLeafBlock / 2, 49);
  Knn wide(big.num_instances() / 4);
  wide.train(big);
  expect_matches_brute(wide, big, big.num_instances() / 4,
                       random_queries(40, 8, 50), 8);
}

TEST(KnnIndex, WideStoreWithoutLeafScreenMatchesBruteBitForBit) {
  // Past 128 dimensions the leaves carry no int16 screen block and are
  // scanned in doubles alone.
  const auto data = testdata::blobs(3, 130, 300, 1.0, 1.5, 71);
  Knn model(5);
  model.train(data);
  EXPECT_TRUE(model.has_index());
  expect_matches_brute(model, data, 5, random_queries(60, 130, 72), 130);
}

TEST(KnnIndex, KEqualToStoreSizeMatchesBruteBitForBit) {
  // k == n: every point is a neighbour, so every query returns the class
  // frequencies of the store.
  const auto data = testdata::blobs(3, 4, 30, 2.0, 1.5, 53);
  const std::size_t n = data.num_instances();
  Knn model(n);
  model.train(data);
  EXPECT_TRUE(model.has_index());
  expect_matches_brute(model, data, n, random_queries(100, 4, 54), 4);
}

TEST(KnnIndex, NonFiniteTrainingValuesMatchBruteBitForBit) {
  // A NaN cell makes its column's mean and stddev NaN, so the standardizer
  // maps the whole column to 0: the store stays finite and indexed.
  const auto data =
      with_cells(testdata::blobs(3, 4, 200, 2.0, 1.5, 59),
                 {{17, 2, std::numeric_limits<double>::quiet_NaN()}});
  Knn model(5);
  model.train(data);
  EXPECT_TRUE(model.has_index());
  expect_matches_brute(model, data, 5, random_queries(200, 4, 60), 4);

  // Finite values so far apart that a standardized difference overflows:
  // the column's mean is about -1e305, so row 0's distance from it is inf,
  // the stddev is inf and row 0 standardizes to inf/inf = NaN. The store
  // holds a non-finite value, no box bound can order it, and every query
  // takes the plain scan.
  constexpr double kMax = std::numeric_limits<double>::max();
  const auto extreme = with_cells(testdata::blobs(3, 4, 200, 2.0, 1.5, 61),
                                  {{0, 1, kMax}, {1, 1, -kMax}, {2, 1, -6e307}});
  Knn scanned(5);
  scanned.train(extreme);
  EXPECT_FALSE(scanned.has_index());
  expect_matches_brute(scanned, extreme, 5, random_queries(200, 4, 62), 4);
}

TEST(KnnIndex, TieHeavyIntegerLatticeMatchesBruteBitForBit) {
  // Every coordinate on a small integer lattice: huge numbers of exactly
  // equal distances, so the k-th distance is massively degenerate and any
  // deviation in tie handling (order of equal-distance candidates) breaks
  // bit-identity of the label histogram.
  std::vector<Attribute> attrs;
  for (std::size_t f = 0; f < 3; ++f)
    attrs.emplace_back("f" + std::to_string(f));
  attrs.emplace_back("class", std::vector<std::string>{"a", "b", "c"});
  Dataset data(std::move(attrs), "lattice");
  Rng rng(21);
  const std::size_t n = 4 * kernels::kLeafBlock;
  for (std::size_t i = 0; i < n; ++i) {
    Instance row;
    for (std::size_t f = 0; f < 3; ++f)
      row.values.push_back(static_cast<double>(rng.uniform_int(0, 3)));
    row.values.push_back(static_cast<double>(rng.uniform_int(0, 2)));
    data.add(std::move(row));
  }
  Knn model(7);
  model.train(data);
  ASSERT_TRUE(model.has_index());
  // Queries on the same lattice maximise exact-tie collisions.
  std::vector<double> queries;
  Rng qrng(22);
  for (std::size_t i = 0; i < 400; ++i)
    for (std::size_t f = 0; f < 3; ++f)
      queries.push_back(static_cast<double>(qrng.uniform_int(0, 3)));
  expect_matches_brute(model, data, 7, queries, 3);
}

TEST(KnnIndex, MidLatticeQueriesMatchBruteBitForBit) {
  // Lattice points sit on the int16 screen grid, and a query halfway
  // between two of them along an axis does not: the pair is equidistant
  // (to an ulp) from it, and its rounding onto the grid moves one of them
  // half a step closer and the other half a step farther. Only the
  // screen threshold's quantization-error term keeps the farther one.
  std::vector<Attribute> attrs;
  for (std::size_t f = 0; f < 3; ++f)
    attrs.emplace_back("f" + std::to_string(f));
  attrs.emplace_back("class", std::vector<std::string>{"a", "b", "c"});
  Dataset data(std::move(attrs), "lattice");
  Rng rng(73);
  for (std::size_t i = 0; i < 3 * kernels::kLeafBlock; ++i) {
    Instance row;
    for (std::size_t f = 0; f < 3; ++f)
      row.values.push_back(static_cast<double>(rng.uniform_int(0, 7)));
    row.values.push_back(static_cast<double>(rng.uniform_int(0, 2)));
    data.add(std::move(row));
  }
  std::vector<double> queries;
  Rng qrng(74);
  for (std::size_t i = 0; i < 600; ++i) {
    const std::size_t axis = i % 3;
    for (std::size_t f = 0; f < 3; ++f)
      queries.push_back(static_cast<double>(qrng.uniform_int(0, 6)) +
                        (f == axis ? 0.5 : 0.0));
  }
  for (const std::size_t k : {std::size_t{1}, std::size_t{4}}) {
    Knn model(k);
    model.train(data);
    ASSERT_TRUE(model.has_index());
    expect_matches_brute(model, data, k, queries, 3);
  }
}

TEST(KnnIndex, NonFiniteQueriesMatchBruteForce) {
  Knn model(5);
  const auto data = big_blobs(kernels::kLeafBlock, 23);
  model.train(data);
  ASSERT_TRUE(model.has_index());
  std::vector<double> queries = random_queries(8, 8, 24);
  queries[3] = std::numeric_limits<double>::quiet_NaN();
  queries[8 + 5] = std::numeric_limits<double>::infinity();
  queries[2 * 8 + 1] = -std::numeric_limits<double>::infinity();
  expect_matches_brute(model, data, 5, queries, 8);

  // NaN in the leading feature, the key the indexed batch sorts rows by:
  // several such rows in one batch large enough for std::sort's
  // partitioning path (more than 16 rows).
  std::vector<double> keyed = random_queries(64, 8, 25);
  for (std::size_t r = 0; r < 64; r += 3)
    keyed[r * 8] = std::numeric_limits<double>::quiet_NaN();
  expect_matches_brute(model, data, 5, keyed, 8);
}

TEST(KnnIndex, StoreSpanningMoreThanADoubleScoresItsNearestNeighbour) {
  // A model file may hold any finite values. Here they span -2^1023 to
  // 2^1023, so the grid's range overflows; the leaves must then be scanned
  // without the screen. The query's nearest point is row 2 (class 1); the
  // first point offered at a finite distance is row 1 (class 0).
  std::istringstream in(
      "hmd-model v1\nscheme IBk\nclasses 2\nk 1\n"
      "standardizer_mean 0x0p+0 0x0p+0\nstandardizer_sd 0x1p+0 0x1p+0\n"
      "labels 0 0 1\npoints 3 2\nrow -0x1p+1023 0x0p+0\n"
      "row 0x1p+1023 0x1.4p+2\nrow 0x1p+1023 0x0p+0\nend\n");
  const auto model = load_model(in);
  const auto dist = model->distribution(std::vector<double>{0x1p+1023, 0.1});
  EXPECT_EQ(dist, (std::vector<double>{0.0, 1.0}));
}

TEST(KnnIndex, SerializationRoundTripRebuildsIndexAndVerdicts) {
  Knn model(5);
  const auto data = big_blobs(kernels::kLeafBlock, 29);
  model.train(data);
  ASSERT_TRUE(model.has_index());

  std::stringstream buf;
  save_model(buf, model);
  const auto loaded = load_model(buf);
  ASSERT_NE(loaded, nullptr);
  auto* knn = dynamic_cast<Knn*>(loaded.get());
  ASSERT_NE(knn, nullptr);
  EXPECT_TRUE(knn->has_index());

  const auto queries = random_queries(200, 8, 30);
  const std::size_t k = model.num_classes();
  std::vector<double> before(200 * k), after(200 * k);
  model.distribution_batch(queries, 8, before);
  knn->distribution_batch(queries, 8, after);
  for (std::size_t i = 0; i < before.size(); ++i)
    ASSERT_EQ(before[i], after[i]) << "flat index " << i;
  expect_matches_brute(*knn, data, 5, queries, 8);
}

TEST(KnnIndex, KAboveStoreSizeRoundTripsThroughModelFile) {
  // k is clamped to the store at train time, so the saved file carries a
  // k the loader accepts, and the distributions are those of k == n.
  const auto data = testdata::blobs(2, 3, 3, 2.0, 1.0, 67);
  ASSERT_EQ(data.num_instances(), 6u);
  Knn model(10);
  model.train(data);
  std::stringstream buf;
  save_model(buf, model);
  const auto loaded = try_load_model(buf);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message();
  const auto queries = random_queries(50, 3, 68);
  std::vector<double> before(50 * 2), after(50 * 2);
  model.distribution_batch(queries, 3, before);
  loaded.value()->distribution_batch(queries, 3, after);
  for (std::size_t i = 0; i < before.size(); ++i)
    ASSERT_EQ(before[i], after[i]) << "flat index " << i;
  expect_matches_brute(model, data, 6, queries, 3);

  // Retraining starts from the constructor's k again, not the clamped one.
  const auto bigger = testdata::blobs(2, 3, 40, 2.0, 1.0, 69);
  model.train(bigger);
  expect_matches_brute(model, bigger, 10, queries, 3);
}

TEST(KnnIndex, BatchMatchesPerRowDistribution) {
  // The locality-sorted batch must return rows in caller order: compare
  // against one-row-at-a-time distribution() calls.
  Knn model(5);
  const auto data = big_blobs(kernels::kLeafBlock, 31);
  model.train(data);
  ASSERT_TRUE(model.has_index());
  const std::size_t rows = 64, d = 8;
  const auto queries = random_queries(rows, d, 32);
  const std::size_t k = model.num_classes();
  std::vector<double> batch(rows * k);
  model.distribution_batch(queries, d, batch);
  for (std::size_t r = 0; r < rows; ++r) {
    const auto one = model.distribution(
        std::span<const double>(queries.data() + r * d, d));
    for (std::size_t c = 0; c < k; ++c)
      ASSERT_EQ(batch[r * k + c], one[c]) << "r=" << r << " c=" << c;
  }
}

TEST(KnnIndex, ExactnessHoldsOnEveryIsa) {
  Knn model(5);
  const auto data = big_blobs(kernels::kLeafBlock, 37);
  model.train(data);
  ASSERT_TRUE(model.has_index());
  const auto queries = random_queries(120, 8, 38);
  const kernels::Isa saved = kernels::active_isa();
  for (kernels::Isa isa :
       {kernels::Isa::kScalar, kernels::Isa::kAvx2, kernels::Isa::kAvx512}) {
    if (!kernels::isa_supported(isa)) continue;
    kernels::force_isa(isa);
    expect_matches_brute(model, data, 5, queries, 8);
  }
  kernels::force_isa(saved);
}

}  // namespace
}  // namespace hmd::ml
