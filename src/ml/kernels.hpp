// Shared hot-path numeric kernels for the ML library. Every classifier's
// inner loop (logistic/SVM/MLP dots, Knn distances, Mahalanobis forms,
// PCA covariance) funnels through these so the memory-access pattern is
// written once and optimized once.
//
// Bit-exactness contract: each kernel accumulates LEFT TO RIGHT in the
// same order the pre-refactor per-classifier loops did (init value first,
// then elements ascending), and nothing here may be compiled with
// -ffast-math (kernels.cpp is additionally pinned to -ffp-contract=off so
// an FMA-capable SIMD clone cannot skip the intermediate rounding the
// scalar path performs). Changing an accumulation order is a behaviour
// change — the determinism regression tests will catch it. Integer
// kernels are exempt: exact math, so reassociation is a pure speed change.
//
// SIMD dispatch: the out-of-line kernels (screen, GEMM, MLP epoch) carry
// scalar + AVX2 (+ AVX-512) clones selected at runtime (active_isa()).
// The choice is overridable via the HMD_KERNEL_ISA environment variable
// or force_isa() so heterogeneous CI runners produce reproducible
// codepaths, and every clone of a float kernel is bit-identical by
// construction — pinned by the dispatch-parity test suite through the
// *_as(Isa, ...) entry points.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace hmd::ml::kernels {

/// init + Σ a[i]*b[i], accumulated left to right. The `init` seed makes
/// bias-first affine forms (`z = w[d] + Σ w[f]*x[f]`) exact.
inline double dot(std::span<const double> a, std::span<const double> b,
                  double init = 0.0) {
  double acc = init;
  const std::size_t n = a.size();
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

/// Affine form with the bias stored LAST in `weights` (the library's
/// weight-vector convention): weights[n] + Σ weights[f]*x[f].
inline double affine_bias_last(std::span<const double> weights,
                               std::span<const double> x) {
  return dot({weights.data(), x.size()}, x, weights[x.size()]);
}

/// y[i] += alpha * x[i].
inline void axpy(double alpha, std::span<const double> x,
                 std::span<double> y) {
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

/// Logistic sigmoid through glibc exp (MLP hidden units).
inline double sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

/// Numerically stable in-place softmax of logits. Inline: training and
/// batch scoring call it once per row. The max element's shifted logit is
/// exactly 0.0 and std::exp(0.0) is exactly 1.0, so skipping the libm call
/// there changes nothing but the call count.
inline void softmax_inplace(std::span<double> logits) {
  HMD_REQUIRE(!logits.empty(), "softmax of empty vector");
  const double mx = *std::max_element(logits.begin(), logits.end());
  double total = 0.0;
  for (double& v : logits) {
    const double t = v - mx;
    v = t == 0.0 ? 1.0 : std::exp(t);
    total += v;
  }
  for (double& v : logits) v /= total;
}

/// Σ (a[i]-b[i])², accumulated left to right.
inline double squared_l2(std::span<const double> a,
                         std::span<const double> b) {
  double acc = 0.0;
  const std::size_t n = a.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

// --- Runtime ISA dispatch ---------------------------------------------------

/// The instruction sets the dispatched kernels are cloned for. kScalar is
/// baseline x86-64 (and the only choice off x86-64).
enum class Isa { kScalar, kAvx2, kAvx512 };

/// "scalar", "avx2", "avx512".
const char* to_string(Isa isa);

/// Parse an ISA name (the HMD_KERNEL_ISA / --isa spellings); nullopt for
/// anything else.
std::optional<Isa> isa_from_name(const std::string& name);

/// True when the running CPU can execute kernels cloned for `isa`
/// (kScalar is always true).
bool isa_supported(Isa isa);

/// The ISA the dispatched kernels currently select. Resolution order:
/// force_isa() override, else HMD_KERNEL_ISA from the environment (read
/// once, resolved by resolve_isa_request below), else the best
/// CPU-supported ISA.
Isa active_isa();

/// Resolve an HMD_KERNEL_ISA-style request: parse the name and CLAMP it
/// to the best ISA this CPU supports — a CI matrix can export
/// HMD_KERNEL_ISA=avx512 fleet-wide and an avx2-only runner simply runs
/// its best tier instead of aborting. Unknown names raise
/// PreconditionError (a typo should fail fast, not silently fall back).
Isa resolve_isa_request(const std::string& name);

/// Programmatic override (tools' --isa flag, tests). Raises
/// PreconditionError when the CPU cannot execute `isa`.
void force_isa(Isa isa);
/// force_isa by flag value ("scalar", "avx2", "avx512"); HMD_REQUIREs on
/// unknown names and unsupported CPUs — the --isa plumbing of the tools.
void force_isa_by_name(const std::string& name);

/// Entries a screen block occupies for `rows` rows of `dims` dimensions in
/// the dim-pair-interleaved layout below (odd widths pad a zero dimension).
inline constexpr std::size_t screen_block_entries(std::size_t rows,
                                                  std::size_t dims) {
  return rows * 2 * ((dims + 1) / 2);
}

/// Index of dimension j of row b inside a screen block of `rows` rows:
/// dimensions are taken in PAIRS, and within a pair the block is
/// row-major — pair p of row b lives at [p*2*rows + 2*b] / [.. + 1]. Two
/// adjacent int16 therefore hold two dimensions of ONE row, which is
/// exactly the shape of the x86 madd (vpmaddwd) step: multiply adjacent
/// int16 pairs, add each pair into an int32 lane — one instruction
/// squares-and-sums a dimension pair for 8/16 rows at once.
inline constexpr std::size_t screen_block_index(std::size_t rows,
                                                std::size_t b,
                                                std::size_t j) {
  return (j / 2) * 2 * rows + 2 * b + (j % 2);
}

/// Exact integer squared-L2 screen over one block of `rows` quantized
/// candidates in the dim-pair-interleaved layout above. For every b:
///
///   acc[b] = sum_j (qx[j] - block[screen_block_index(rows, b, j)])^2
///
/// (a padded odd dimension is stored as 0 and screened against a query
/// coordinate of 0, so it contributes nothing). The caller must pick its
/// quantization grid so every difference fits int16 and
/// dims * span² <= INT32_MAX (Knn adapts the span to the store width) —
/// then the arithmetic is exact integer math with no rounding, and
/// reassociating it across lanes is a pure speed change. Implemented out
/// of line with runtime-dispatched SIMD clones (vpmaddwd on
/// AVX2/AVX-512). `rows` must be a multiple of 16.
void screen_squared_l2_i16(const std::int16_t* block, const std::int16_t* qx,
                           std::size_t dims, std::size_t rows,
                           std::int32_t* acc);
/// Fixed-ISA variant for the dispatch-parity tests (caller must check
/// isa_supported first).
void screen_squared_l2_i16_as(Isa isa, const std::int16_t* block,
                              const std::int16_t* qx, std::size_t dims,
                              std::size_t rows, std::int32_t* acc);

/// Most points a KD-tree leaf holds (Knn::build_index): a node of at most
/// this many points is not split further, and each leaf carries one
/// screen block. The tree prunes at leaf granularity, so small leaves
/// mean each query touches a small fraction of the store.
inline constexpr std::size_t kLeafBlock = 768;

/// Bitmask of screen survivors: bit b of mask[b/64] is set iff
/// acc[b] <= thr. `n` must be a multiple of 16; mask holds ceil(n/64)
/// words. A dispatched kernel because the comparison over a whole block
/// is the screen's companion hot loop (one vector compare per 8/16 lanes
/// beats a branchy scalar scan whose branches are almost always taken).
void mask_le_i32(const std::int32_t* acc, std::size_t n, std::int32_t thr,
                 std::uint64_t* mask);
/// Fixed-ISA variant for the dispatch-parity tests.
void mask_le_i32_as(Isa isa, const std::int32_t* acc, std::size_t n,
                    std::int32_t thr, std::uint64_t* mask);

/// Lower bound on the squared distance from `x` to the axis-aligned box
/// [lo, hi] (all length d): Σ_j t_j² with t_j = max(0, lo[j]-x[j],
/// x[j]-hi[j]). EXEMPT from the left-to-right bit-exactness contract:
/// this is a pruning bound, not a reproducible distance, so the SIMD
/// clones reassociate the reduction freely. Any clone's value is within
/// a few ulps (≲ 2·d·ε relative) of the exact sum; a caller comparing it
/// against exactly-computed distances must shrink it by a relative slack
/// that dwarfs that rounding (Knn uses 1e-12). Inputs must be finite.
double bound_squared_l2(const double* lo, const double* hi, const double* x,
                        std::size_t d);
/// Fixed-ISA variant for the dispatch tests (values may differ across
/// ISAs by the rounding slack above — tests compare with tolerance).
double bound_squared_l2_as(Isa isa, const double* lo, const double* hi,
                           const double* x, std::size_t d);

/// Pack per-class bias-last weight rows (w[c] = d weights + bias) into the
/// feature-major layout affine_batch consumes: packed[f*k + c] = w[c][f]
/// for f < d, and packed[d*k + c] = w[c][d] (the bias row last). The
/// transpose puts one feature's weights for ALL outputs contiguous, so the
/// GEMM's inner update is a unit-stride SIMD axpy across outputs.
std::vector<double> pack_weights_feature_major(
    const std::vector<std::vector<double>>& w);

/// Blocked batch affine map (the serve-path GEMM): for every input row r
/// of `a` (rows x d, row-major) and every output c of k,
///
///   out[r*k + c] = packed[d*k + c] + Σ_f ascending a[r*d+f]*packed[f*k+c]
///
/// i.e. bit-identical to affine_bias_last(w[c], row r) — the bias seeds
/// the accumulator and features accumulate left to right, so blocking over
/// rows and vectorizing ACROSS outputs changes nothing (IEEE ops happen in
/// the same order per output; SIMD lanes never span the reduction axis).
/// `packed` comes from pack_weights_feature_major. Runtime-dispatched
/// scalar/AVX2/AVX-512 clones.
void affine_batch(const double* a, std::size_t rows, std::size_t d,
                  const double* packed, std::size_t k, double* out);
/// Fixed-ISA variant for the dispatch-parity tests.
void affine_batch_as(Isa isa, const double* a, std::size_t rows,
                     std::size_t d, const double* packed, std::size_t k,
                     double* out);

/// The weights one MLP SGD epoch updates in place, packed so that both
/// layers keep one SIMD lane per hidden unit. With H = h rounded up to a
/// whole number of 4-lane tiles:
///   w1[f*H + j]      weight of input f into hidden unit j (f < d), the
///                    biases in row f = d;
///   w2[c*(H+1) + j]  weight of hidden unit j into class c, the bias at
///                    j = H;
///   v1, v2           their momenta, same layouts.
/// Lanes j >= h hold 0 and stay 0. pack/unpack convert from and to the
/// per-unit rows the Mlp model stores.
struct MlpWeights {
  std::size_t d = 0;  ///< input features
  std::size_t h = 0;  ///< hidden units
  std::size_t k = 0;  ///< classes
  std::vector<double> w1, v1, w2, v2;

  /// From per-unit rows: units[j] = hidden unit j's d input weights then
  /// its bias, classes[c] = class c's h unit weights then its bias (the
  /// Mlp model's w1() and w2()). Momenta start at 0.
  static MlpWeights pack(const std::vector<std::vector<double>>& units,
                         const std::vector<std::vector<double>>& classes);
  /// Back into per-unit rows, the shapes pack takes.
  void unpack(std::vector<std::vector<double>>& units,
              std::vector<std::vector<double>>& classes) const;
};

/// One epoch of the MLP's SGD with momentum `m` at learning rate `lr`,
/// over rows order[0..n) of `x` (standardized, d per row) with classes
/// `labels`. Per row, hidden unit j and class c:
///
///   z[j]   = w1[d][j] + Σ_f ascending w1[f][j]*x[f];  hid[j] = sigmoid(z[j])
///   out    = softmax_inplace(w2[c][h] + Σ_j ascending w2[c][j]*hid[j])
///   err[c] = out[c] - (c == y);  dh[j] = Σ_c ascending err[c]*w2[c][j]
///            (pre-update w2), then per class v2 = m*v2 - (lr*err)*hid,
///            w2 += v2 (bias: v2 = m*v2 - lr*err)
///   g[j]   = lr * (dh[j]*hid[j]*(1 - hid[j]))
///   each w1 row f: v1 = m*v1 - g*x[f]; w1 += v1 (bias row: m*v1 - g)
///
/// SIMD lanes span hidden units and never a reduction, so each lane runs
/// the per-unit loop's operations in its order and every clone matches
/// it bit for bit (tests/ml/mlp_reference.hpp). Runtime-dispatched
/// scalar and AVX2 clones (Isa::kAvx512 runs the AVX2 one); sigmoid and
/// softmax stay scalar glibc exp.
void mlp_sgd_epoch(MlpWeights& net, const double* x,
                   const std::size_t* labels, const std::size_t* order,
                   std::size_t n, double lr, double m);
/// Fixed-ISA variant for the dispatch-parity tests.
void mlp_sgd_epoch_as(Isa isa, MlpWeights& net, const double* x,
                      const std::size_t* labels, const std::size_t* order,
                      std::size_t n, double lr, double m);

/// Standardize `x` into `out`: (x-mean)/stddev per feature, 0 where the
/// training stddev was 0 (constant column). Matches Standardizer::transform
/// exactly, without the per-call allocation.
inline void standardize_into(std::span<const double> x,
                             std::span<const double> means,
                             std::span<const double> stddevs,
                             std::span<double> out) {
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = stddevs[i] > 0.0 ? (x[i] - means[i]) / stddevs[i] : 0.0;
  }
}

/// Standardize `rows` contiguous rows of width means.size() in one call —
/// per element bit-identical to standardize_into. The constant-column
/// rule is applied as an unconditional divide (by a safe divisor of 1
/// where stddev == 0) followed by a blend to 0 — dividing by `safe` never
/// traps, so the division stays a straight-line vectorizable statement,
/// unlike the conditional divide in the per-row form which the
/// vectorizer must refuse to speculate. The select (not a multiply by a
/// 0/1 mask) keeps non-finite inputs on constant columns mapping to 0.
inline void standardize_rows(const double* flat, std::size_t rows,
                             std::span<const double> means,
                             std::span<const double> stddevs,
                             double* out) {
  const std::size_t d = means.size();
  constexpr std::size_t kMaxStack = 256;
  if (d > kMaxStack) {  // unusual width: keep the simple per-element form
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t j = 0; j < d; ++j) {
        const std::size_t i = r * d + j;
        out[i] = stddevs[j] > 0.0 ? (flat[i] - means[j]) / stddevs[j] : 0.0;
      }
    return;
  }
  double safe[kMaxStack];
  double mask[kMaxStack];
  for (std::size_t j = 0; j < d; ++j) {
    const bool live = stddevs[j] > 0.0;
    safe[j] = live ? stddevs[j] : 1.0;
    mask[j] = live ? 1.0 : 0.0;
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const double* x = flat + r * d;
    double* o = out + r * d;
    for (std::size_t j = 0; j < d; ++j) {
      const double val = (x[j] - means[j]) / safe[j];
      o[j] = mask[j] != 0.0 ? val : 0.0;
    }
  }
}

/// Row-major GEMV: out[r] = dot(matrix row r, x) for r in [0, rows).
/// `matrix` holds rows contiguously with stride `cols` (= x.size()).
void gemv_row_major(std::span<const double> matrix, std::size_t rows,
                    std::span<const double> x, std::span<double> out);

}  // namespace hmd::ml::kernels
