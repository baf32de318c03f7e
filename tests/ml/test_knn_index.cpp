// The KD-tree index is an accelerator, not an approximation: every IBk
// verdict (distributions included, ties included) must be bit-identical
// to the brute-force reference scan. This suite drives both paths over
// the same stores — including tie-heavy integer-lattice data where the
// k-th distance is massively degenerate — and pins the equivalence.
#include "ml/knn.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "ml/kernels.hpp"
#include "ml/serialization.hpp"
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

/// Scores `queries` through all three paths — KD-tree index, screened
/// scan, and the plain unscreened scan (the reference "brute path") —
/// and asserts they agree to the last bit.
void expect_paths_identical(Knn& model, const std::vector<double>& queries,
                            std::size_t width) {
  const std::size_t rows = queries.size() / width;
  const std::size_t k = model.num_classes();
  std::vector<double> with_index(rows * k), screened(rows * k),
      brute(rows * k);
  model.set_index_enabled(true);
  model.distribution_batch(queries, width, with_index);
  model.set_index_enabled(false);
  model.distribution_batch(queries, width, screened);
  model.set_screen_enabled(false);
  model.distribution_batch(queries, width, brute);
  model.set_screen_enabled(true);
  model.set_index_enabled(true);
  for (std::size_t i = 0; i < brute.size(); ++i) {
    ASSERT_EQ(with_index[i], brute[i]) << "index vs brute, flat " << i;
    ASSERT_EQ(screened[i], brute[i]) << "screen vs brute, flat " << i;
  }
  EXPECT_EQ(fingerprint(with_index, k), fingerprint(brute, k));
}

/// Gaussian store big enough to clear the index-build threshold.
Dataset big_blobs(std::size_t per_class, std::uint64_t seed) {
  return testdata::blobs(4, 8, per_class, 2.0, 1.5, seed);
}

std::vector<double> random_queries(std::size_t rows, std::size_t d,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> q(rows * d);
  for (double& v : q) v = rng.normal(3.0, 3.0);
  return q;
}

TEST(KnnIndex, SmallStoreStaysBruteForce) {
  Knn model(3);
  model.train(testdata::three_class(40));
  EXPECT_FALSE(model.has_index());
}

TEST(KnnIndex, BigStoreBuildsIndexAndMatchesBruteBitForBit) {
  const std::size_t per_class =
      kernels::kLeafBlock;  // 4 classes: ~2x the build threshold
  Knn model(5);
  const auto data = big_blobs(per_class, 17);
  model.train(data);
  ASSERT_TRUE(model.has_index());
  expect_paths_identical(model, random_queries(300, 8, 18), 8);

  // The thesis dataset's shape: 16 counters, 6 classes, 1.5x the build
  // threshold.
  Knn thesis(5);
  thesis.train(testdata::blobs(6, 16, kernels::kLeafBlock / 2, 2.0, 1.5, 19));
  ASSERT_TRUE(thesis.has_index());
  expect_paths_identical(thesis, random_queries(300, 16, 20), 16);
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
  expect_paths_identical(model, queries, 3);
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
  expect_paths_identical(model, queries, 8);

  // NaN in the leading feature, the key the indexed batch sorts rows by:
  // several such rows in one batch large enough for std::sort's
  // partitioning path (more than 16 rows).
  std::vector<double> keyed = random_queries(64, 8, 25);
  for (std::size_t r = 0; r < 64; r += 3)
    keyed[r * 8] = std::numeric_limits<double>::quiet_NaN();
  expect_paths_identical(model, keyed, 8);
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
  expect_paths_identical(*knn, queries, 8);
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
    expect_paths_identical(model, queries, 8);
  }
  kernels::force_isa(saved);
}

}  // namespace
}  // namespace hmd::ml
