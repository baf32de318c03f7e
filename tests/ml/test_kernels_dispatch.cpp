// Dispatch-parity suite for the runtime-SIMD kernel library: every
// dispatched kernel must produce BIT-IDENTICAL output on every ISA this
// CPU supports (the exactness contract in kernels.hpp), except the
// documented bound_squared_l2 exemption which is checked with tolerance.
#include "ml/kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace hmd::ml::kernels {
namespace {

/// ISAs this machine can actually run (kScalar is always first).
std::vector<Isa> supported_isas() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512})
    if (isa_supported(isa)) out.push_back(isa);
  return out;
}

/// Restores the pre-test dispatch choice even if the test throws.
class IsaGuard {
 public:
  IsaGuard() : saved_(active_isa()) {}
  ~IsaGuard() { force_isa(saved_); }

 private:
  Isa saved_;
};

TEST(KernelsDispatch, IsaNamesRoundTrip) {
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    const auto parsed = isa_from_name(to_string(isa));
    ASSERT_TRUE(parsed.has_value()) << to_string(isa);
    EXPECT_EQ(*parsed, isa);
  }
  EXPECT_FALSE(isa_from_name("sse9").has_value());
  EXPECT_FALSE(isa_from_name("").has_value());
  EXPECT_FALSE(isa_from_name("AVX2 ").has_value());
}

TEST(KernelsDispatch, ScalarAlwaysSupportedAndForcible) {
  EXPECT_TRUE(isa_supported(Isa::kScalar));
  IsaGuard guard;
  force_isa(Isa::kScalar);
  EXPECT_EQ(active_isa(), Isa::kScalar);
}

TEST(KernelsDispatch, ForceIsaByNameRejectsUnknownName) {
  EXPECT_THROW(force_isa_by_name("mmx"), Error);
  EXPECT_THROW(force_isa_by_name(""), Error);
}

TEST(KernelsDispatch, ResolveIsaRequestClampsToSupportedTier) {
  // The HMD_KERNEL_ISA resolver: names parse to their tier, but a request
  // above what this CPU supports clamps to the best supported tier
  // (fleet-wide env settings must not abort weaker runners). Unknown
  // names still fail fast.
  const Isa best = supported_isas().back();
  EXPECT_EQ(resolve_isa_request("scalar"), Isa::kScalar);
  for (const char* name : {"avx2", "avx512"}) {
    const Isa requested = *isa_from_name(name);
    const Isa resolved = resolve_isa_request(name);
    EXPECT_EQ(resolved, std::min(requested, best)) << name;
    EXPECT_TRUE(isa_supported(resolved)) << name;
  }
  EXPECT_THROW(resolve_isa_request("sse9"), Error);
  EXPECT_THROW(resolve_isa_request(""), Error);
}

TEST(KernelsDispatch, AffineBatchBitIdenticalAcrossIsasAndToPerRowForm) {
  Rng rng(41);
  // Odd d and k exercise vector tails; rows has no alignment contract.
  for (const auto [rows, d, k] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{17, 13, 7},
        {64, 16, 6},
        {3, 1, 1},
        {33, 24, 9}}) {
    std::vector<std::vector<double>> w(k, std::vector<double>(d + 1));
    for (auto& row : w)
      for (double& v : row) v = rng.normal(0.0, 1.0);
    std::vector<double> a(rows * d);
    for (double& v : a) v = rng.normal(0.0, 2.0);
    const std::vector<double> packed = pack_weights_feature_major(w);

    std::vector<double> ref(rows * k);
    affine_batch_as(Isa::kScalar, a.data(), rows, d, packed.data(), k,
                    ref.data());
    // The scalar batch form must match the per-row accumulation exactly.
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < k; ++c) {
        const double per_row = affine_bias_last(
            w[c], std::span<const double>(a.data() + r * d, d));
        ASSERT_EQ(ref[r * k + c], per_row) << "r=" << r << " c=" << c;
      }
    for (Isa isa : supported_isas()) {
      std::vector<double> out(rows * k, std::numeric_limits<double>::quiet_NaN());
      affine_batch_as(isa, a.data(), rows, d, packed.data(), k, out.data());
      for (std::size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(ref[i], out[i]) << to_string(isa) << " i=" << i;
    }
  }
}

TEST(KernelsDispatch, ScreenBitIdenticalAcrossIsasAndToDirectSum) {
  Rng rng(42);
  for (const std::size_t dims : {std::size_t{5}, std::size_t{16}}) {
    const std::size_t rows = 48;  // multiple-of-16 contract
    std::vector<std::int16_t> block(screen_block_entries(rows, dims), 0);
    std::vector<std::vector<std::int16_t>> pts(rows,
                                               std::vector<std::int16_t>(dims));
    for (std::size_t b = 0; b < rows; ++b)
      for (std::size_t j = 0; j < dims; ++j) {
        pts[b][j] = static_cast<std::int16_t>(rng.uniform_int(-2047, 2047));
        block[screen_block_index(rows, b, j)] = pts[b][j];
      }
    // Odd dims: the padded dimension stays 0 in both block and query.
    std::vector<std::int16_t> qx(dims + (dims % 2), 0);
    for (std::size_t j = 0; j < dims; ++j)
      qx[j] = static_cast<std::int16_t>(rng.uniform_int(-2047, 2047));

    std::vector<std::int32_t> ref(rows);
    screen_squared_l2_i16_as(Isa::kScalar, block.data(), qx.data(), dims, rows,
                             ref.data());
    for (std::size_t b = 0; b < rows; ++b) {
      std::int64_t want = 0;
      for (std::size_t j = 0; j < dims; ++j) {
        const std::int64_t t = std::int64_t{qx[j]} - pts[b][j];
        want += t * t;
      }
      ASSERT_EQ(ref[b], want) << "b=" << b;
    }
    for (Isa isa : supported_isas()) {
      std::vector<std::int32_t> acc(rows, -1);
      screen_squared_l2_i16_as(isa, block.data(), qx.data(), dims, rows,
                               acc.data());
      ASSERT_EQ(acc, ref) << to_string(isa);
    }
  }
}

TEST(KernelsDispatch, MaskBitIdenticalAcrossIsas) {
  Rng rng(43);
  const std::size_t n = 192;
  std::vector<std::int32_t> acc(n);
  const std::int32_t thr = 1000;
  for (auto& v : acc)  // cluster around thr so both mask outcomes occur
    v = thr + static_cast<std::int32_t>(rng.uniform_int(-20, 20));
  acc[0] = thr;  // boundary: <= keeps the exact threshold
  std::vector<std::uint64_t> ref((n + 63) / 64, 0);
  mask_le_i32_as(Isa::kScalar, acc.data(), n, thr, ref.data());
  for (std::size_t b = 0; b < n; ++b) {
    const bool bit = (ref[b / 64] >> (b % 64)) & 1u;
    ASSERT_EQ(bit, acc[b] <= thr) << "b=" << b;
  }
  for (Isa isa : supported_isas()) {
    std::vector<std::uint64_t> mask((n + 63) / 64, ~std::uint64_t{0});
    mask_le_i32_as(isa, acc.data(), n, thr, mask.data());
    ASSERT_EQ(mask, ref) << to_string(isa);
  }
}

TEST(KernelsDispatch, BoundIsValidLowerBoundWithinDocumentedSlack) {
  // bound_squared_l2 is EXEMPT from bit-parity (reassociated reduction);
  // the contract is: every ISA's value is within a tiny relative rounding
  // of the exact sum, and after the caller-side 1e-12 shrink it never
  // exceeds the true squared distance to any point of the box.
  Rng rng(45);
  for (const std::size_t d : {std::size_t{3}, std::size_t{16}, std::size_t{33}}) {
    std::vector<double> lo(d), hi(d), x(d), clamped(d);
    for (std::size_t j = 0; j < d; ++j) {
      const double a = rng.normal(0.0, 1.0);
      const double b = a + std::abs(rng.normal(0.0, 1.0));
      lo[j] = a;
      hi[j] = b;
      x[j] = rng.normal(0.0, 3.0);
      clamped[j] = std::min(std::max(x[j], lo[j]), hi[j]);
    }
    const double exact = squared_l2(x, clamped);
    for (Isa isa : supported_isas()) {
      const double bound = bound_squared_l2_as(isa, lo.data(), hi.data(),
                                               x.data(), d);
      EXPECT_NEAR(bound, exact, 1e-9 * std::max(1.0, exact))
          << to_string(isa) << " d=" << d;
      EXPECT_LE(bound * (1.0 - 1e-12), exact) << to_string(isa);
    }
    // A point inside the box has bound exactly 0 on every ISA.
    for (Isa isa : supported_isas())
      EXPECT_EQ(bound_squared_l2_as(isa, lo.data(), hi.data(), clamped.data(),
                                    d),
                0.0)
          << to_string(isa);
  }
}

// -- Golden fingerprints: FNV-1a over the output bit patterns of each
//    bit-exact kernel on fixed seeded inputs. Unlike the pairwise parity
//    tests above, these pin the results ACROSS BUILDS: an accidental
//    accumulation-order change (or a -ffast-math / -ffp-contract leak
//    into kernels.cpp) changes the constant even if every ISA clone
//    changes in lockstep.

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 1099511628211ull;
}

std::uint64_t fnv_doubles(std::uint64_t h, const std::vector<double>& vs) {
  for (const double d : vs) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(double));
    __builtin_memcpy(&bits, &d, sizeof bits);
    h = fnv_mix(h, bits);
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

TEST(KernelsDispatch, GoldenFingerprintAffineBatch) {
  Rng rng(4242);
  const std::size_t rows = 37, d = 19, k = 5;
  std::vector<std::vector<double>> w(k, std::vector<double>(d + 1));
  for (auto& row : w)
    for (double& v : row) v = rng.normal(0.0, 1.0);
  const std::vector<double> packed = pack_weights_feature_major(w);
  std::vector<double> a(rows * d);
  for (double& v : a) v = rng.normal(0.0, 2.0);
  for (Isa isa : supported_isas()) {
    std::vector<double> out(rows * k);
    affine_batch_as(isa, a.data(), rows, d, packed.data(), k, out.data());
    EXPECT_EQ(fnv_doubles(kFnvOffset, out), 0x0c193662d62e30cdull)
        << to_string(isa);
  }
}

TEST(KernelsDispatch, GoldenFingerprintIntegerKernels) {
  Rng rng(4243);
  // screen: one 48-row block of 9 dims (odd width exercises the pad).
  const std::size_t rows = 48, dims = 9;
  std::vector<std::int16_t> block(screen_block_entries(rows, dims), 0);
  for (std::size_t b = 0; b < rows; ++b)
    for (std::size_t j = 0; j < dims; ++j)
      block[screen_block_index(rows, b, j)] =
          static_cast<std::int16_t>(rng.uniform_int(-2047, 2047));
  std::vector<std::int16_t> qx(dims + 1, 0);
  for (std::size_t j = 0; j < dims; ++j)
    qx[j] = static_cast<std::int16_t>(rng.uniform_int(-2047, 2047));
  for (Isa isa : supported_isas()) {
    std::vector<std::int32_t> acc(rows);
    screen_squared_l2_i16_as(isa, block.data(), qx.data(), dims, rows,
                             acc.data());
    std::uint64_t h = kFnvOffset;
    for (const std::int32_t v : acc)
      h = fnv_mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)));
    EXPECT_EQ(h, 0xa81ae691b8e8f7f7ull) << to_string(isa);
  }
}

TEST(KernelsDispatch, MlpEpochBitIdenticalAcrossIsas) {
  Rng rng(47);
  const std::size_t d = 7, k = 3, n = 41;
  std::vector<double> x(n * d);
  for (double& v : x) v = rng.normal(0.0, 1.0);
  std::vector<std::size_t> labels(n), order(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<std::size_t>(rng.uniform_int(0, k - 1));
    order[i] = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
  }
  for (const std::size_t h : {1, 4, 6, 17}) {
    std::vector<std::vector<double>> w1(h, std::vector<double>(d + 1));
    std::vector<std::vector<double>> w2(k, std::vector<double>(h + 1));
    for (auto* rows : {&w1, &w2})
      for (auto& row : *rows)
        for (double& w : row) w = rng.normal(0.0, 0.5);
    std::optional<MlpWeights> ref;
    for (const Isa isa : supported_isas()) {
      MlpWeights net = MlpWeights::pack(w1, w2);
      // The second epoch starts from the first one's momenta.
      for (const double lr : {0.05, 0.03})
        mlp_sgd_epoch_as(isa, net, x.data(), labels.data(), order.data(), n,
                         lr, 0.9);
      // pack() zeroes the pad lanes, so a round trip through the per-unit
      // rows reproduces w1 and w2 only if their pad lanes stayed 0.
      std::vector<std::vector<double>> u1, u2;
      net.unpack(u1, u2);
      const MlpWeights repacked = MlpWeights::pack(u1, u2);
      ASSERT_EQ(repacked.w1, net.w1) << to_string(isa) << " h=" << h;
      ASSERT_EQ(repacked.w2, net.w2) << to_string(isa) << " h=" << h;
      if (!ref) {
        ref = std::move(net);
        continue;
      }
      EXPECT_EQ(ref->w1, net.w1) << to_string(isa) << " h=" << h;
      EXPECT_EQ(ref->v1, net.v1) << to_string(isa) << " h=" << h;
      EXPECT_EQ(ref->w2, net.w2) << to_string(isa) << " h=" << h;
      EXPECT_EQ(ref->v2, net.v2) << to_string(isa) << " h=" << h;
    }
  }
}

TEST(KernelsDispatch, DispatchedEntryPointsFollowForcedIsa) {
  // The un-suffixed entry points must route through active_isa(): forcing
  // scalar and forcing the best ISA must agree bit-for-bit on the same
  // inputs.
  IsaGuard guard;
  Rng rng(46);
  const std::size_t rows = 19, d = 11, k = 4;
  std::vector<std::vector<double>> w(k, std::vector<double>(d + 1));
  for (auto& row : w)
    for (double& v : row) v = rng.normal(0.0, 1.0);
  const std::vector<double> packed = pack_weights_feature_major(w);
  std::vector<double> a(rows * d);
  for (double& v : a) v = rng.normal(0.0, 1.0);

  std::vector<double> out_scalar(rows * k), out_best(rows * k);
  force_isa(Isa::kScalar);
  affine_batch(a.data(), rows, d, packed.data(), k, out_scalar.data());
  const auto isas = supported_isas();
  force_isa(isas.back());
  affine_batch(a.data(), rows, d, packed.data(), k, out_best.data());
  for (std::size_t i = 0; i < out_scalar.size(); ++i)
    ASSERT_EQ(out_scalar[i], out_best[i]) << "i=" << i;
}

}  // namespace
}  // namespace hmd::ml::kernels
