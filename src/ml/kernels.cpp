#include "ml/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "util/error.hpp"

// This file MUST be compiled with -ffp-contract=off (pinned in
// src/ml/CMakeLists.txt): the AVX-512 clones of the float GEMM would
// otherwise fuse `acc += x*w` into an FMA and skip the intermediate
// rounding the scalar body performs, breaking the clone-for-clone
// bit-exactness the dispatch-parity tests pin; a build that enables FMA
// for the whole file (-march=native) would do the same to the MLP epoch's
// `m*v - g*x`. It needs GCC or Clang: the bodies use GNU vector
// extensions.

namespace hmd::ml::kernels {

namespace {

// Integer math only — every variant computes the identical exact result,
// so runtime dispatch cannot change behaviour, only speed. The reference
// body walks the dim-pair-interleaved layout (screen_block_index) exactly
// the way the madd clones consume it; the SIMD clones below are written
// with intrinsics because vpmaddwd (multiply adjacent int16 pairs, add
// each pair into an int32 lane) is the whole reason this layout exists
// and no autovectorizer reliably finds it.
inline void screen_body(const std::int16_t* __restrict block,
                        const std::int16_t* __restrict qx, std::size_t dims,
                        std::size_t rows, std::int32_t* __restrict acc) {
  for (std::size_t b = 0; b < rows; ++b) acc[b] = 0;
  const std::size_t pairs = dims / 2;
  for (std::size_t p = 0; p < pairs; ++p) {
    const std::int16_t* col = block + p * 2 * rows;
    const std::int32_t q0 = qx[2 * p];
    const std::int32_t q1 = qx[2 * p + 1];
    for (std::size_t b = 0; b < rows; ++b) {
      const std::int32_t d0 = q0 - col[2 * b];
      const std::int32_t d1 = q1 - col[2 * b + 1];
      acc[b] += d0 * d0 + d1 * d1;
    }
  }
  if (dims % 2 != 0) {
    // Last (unpaired) dimension: its pad partner is stored as 0 and
    // screened against a query coordinate of 0, contributing nothing.
    const std::int16_t* col = block + pairs * 2 * rows;
    const std::int32_t q0 = qx[dims - 1];
    for (std::size_t b = 0; b < rows; ++b) {
      const std::int32_t d0 = q0 - col[2 * b];
      acc[b] += d0 * d0;
    }
  }
}

// Reference survivor-mask body: bit b of mask iff acc[b] <= thr.
inline void mask_body(const std::int32_t* __restrict acc, std::size_t n,
                      std::int32_t thr, std::uint64_t* __restrict mask) {
  for (std::size_t w = 0; w * 64 < n; ++w) mask[w] = 0;
  for (std::size_t b = 0; b < n; ++b)
    if (acc[b] <= thr) mask[b / 64] |= std::uint64_t{1} << (b % 64);
}

// Reference box-bound body: Σ max(0, lo-x, x-hi)² over the axes. A
// pruning bound only — clones may reassociate (see kernels.hpp).
inline double bound_body(const double* __restrict lo,
                         const double* __restrict hi,
                         const double* __restrict x, std::size_t d) {
  double acc = 0.0;
  for (std::size_t j = 0; j < d; ++j) {
    const double a = lo[j] - x[j];
    const double b = x[j] - hi[j];
    double t = a > b ? a : b;
    t = t > 0.0 ? t : 0.0;
    acc += t * t;
  }
  return acc;
}

// Bias-init batch affine map. Each output accumulates init-first then
// features ascending — exactly affine_bias_last's order — so SIMD lanes
// run across independent outputs/rows and never across the reduction:
// every clone is bit-identical to the scalar body.
//
// Fallback shape for wide outputs: rows are blocked so a block's input
// rows stay in L1 while the packed weights stream once per feature.
__attribute__((always_inline)) inline void affine_body_wide(
    const double* __restrict a, std::size_t rows, std::size_t d,
    const double* __restrict packed, std::size_t k, double* __restrict out) {
  constexpr std::size_t kRowBlock = 32;
  const double* bias = packed + d * k;
  for (std::size_t r0 = 0; r0 < rows; r0 += kRowBlock) {
    const std::size_t rl = std::min(kRowBlock, rows - r0);
    for (std::size_t r = 0; r < rl; ++r) {
      double* o = out + (r0 + r) * k;
      for (std::size_t c = 0; c < k; ++c) o[c] = bias[c];
    }
    for (std::size_t f = 0; f < d; ++f) {
      const double* wf = packed + f * k;
      for (std::size_t r = 0; r < rl; ++r) {
        const double x = a[(r0 + r) * d + f];
        double* o = out + (r0 + r) * k;
        for (std::size_t c = 0; c < k; ++c) o[c] += x * wf[c];
      }
    }
  }
}

// Generic vectors (GCC vector extensions). Every kernel below keeps each
// lane's operations in the scalar order, so the width changes speed only.
typedef double hmd_v8df __attribute__((vector_size(64), aligned(8)));
typedef double hmd_v4df __attribute__((vector_size(32), aligned(8)));
typedef double hmd_v2df __attribute__((vector_size(16), aligned(8)));

// Main shape for the library's small class/hidden counts (k <= 16): tiles
// of 8 rows run in one hmd_v8df, so the math vectorizes across ROWS with
// full lanes regardless of k — unlike the wide shape whose innermost
// k-loop leaves most of a vector idle at k = 6. Every lane owns one (row,
// output) reduction accumulated bias-first then features ascending:
// per-lane independence keeps every variant bit-identical to the scalar
// order.
__attribute__((always_inline)) inline void affine_body(
    const double* __restrict a, std::size_t rows, std::size_t d,
    const double* __restrict packed, std::size_t k, double* __restrict out) {
  constexpr std::size_t kTileRows = 8;
  constexpr std::size_t kMaxCols = 16;  // accumulator tile stays in L1
  if (k > kMaxCols) {
    affine_body_wide(a, rows, d, packed, k, out);
    return;
  }
  const double* bias = packed + d * k;
  hmd_v8df acc[kMaxCols];
  std::size_t r0 = 0;
  for (; r0 + kTileRows <= rows; r0 += kTileRows) {
    const double* ar = a + r0 * d;
    for (std::size_t c = 0; c < k; ++c) acc[c] = hmd_v8df{} + bias[c];
    for (std::size_t f = 0; f < d; ++f) {
      const hmd_v8df av = {ar[f],         ar[d + f],     ar[2 * d + f],
                           ar[3 * d + f], ar[4 * d + f], ar[5 * d + f],
                           ar[6 * d + f], ar[7 * d + f]};
      const double* wf = packed + f * k;
      for (std::size_t c = 0; c < k; ++c) acc[c] += av * wf[c];
    }
    for (std::size_t t = 0; t < kTileRows; ++t)
      for (std::size_t c = 0; c < k; ++c) out[(r0 + t) * k + c] = acc[c][t];
  }
  // Tail rows, in the reference per-row order.
  for (; r0 < rows; ++r0) {
    double* o = out + r0 * k;
    for (std::size_t c = 0; c < k; ++c) o[c] = bias[c];
    for (std::size_t f = 0; f < d; ++f) {
      const double x = a[r0 * d + f];
      const double* wf = packed + f * k;
      for (std::size_t c = 0; c < k; ++c) o[c] += x * wf[c];
    }
  }
}

// MLP epoch (kernels.hpp, mlp_sgd_epoch) over V, a vector of W doubles
// with one hidden unit per lane: ymm in the AVX2 clone, xmm in the scalar
// one, since a vector wider than the ISA's registers is split through the
// stack. An 8-lane zmm body was slower than the ymm one on an AVX-512
// Xeon: at h = 3 or 5 it pads 3-5 dead lanes per tile. -Wpsabi warns,
// at each use, that a vector passed by value has no fixed ABI without the
// matching ISA; everything here is always inlined into its clone, so no
// call crosses an ABI boundary.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"

// MlpWeights pads the hidden units to whole tiles of this many lanes.
constexpr std::size_t kMlpLanes = 4;

constexpr std::size_t mlp_padded_units(std::size_t h) {
  return (h + kMlpLanes - 1) / kMlpLanes * kMlpLanes;
}

template <class V>
__attribute__((always_inline)) inline V loadv(const double* p) {
  V v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <class V>
__attribute__((always_inline)) inline void storev(double* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

// z = bias + Σ_f ascending w1[f]*x[f] over T tiles of W units. The T
// accumulators stay in registers across the feature loop, so each lane's
// chain is bias, +w[0]*x[0], +w[1]*x[1], ... — the per-unit dot's order.
template <class V, std::size_t T>
__attribute__((always_inline)) inline void mlp_forward(
    const double* __restrict w1, std::size_t stride, std::size_t d,
    const double* __restrict x, double* __restrict z) {
  constexpr std::size_t W = sizeof(V) / sizeof(double);
  V acc[T];
  for (std::size_t t = 0; t < T; ++t)
    acc[t] = loadv<V>(w1 + d * stride + W * t);
  for (std::size_t f = 0; f < d; ++f)
    for (std::size_t t = 0; t < T; ++t)
      acc[t] += loadv<V>(w1 + f * stride + W * t) * x[f];
  for (std::size_t t = 0; t < T; ++t) storev(z + W * t, acc[t]);
}

// One row's backward and momentum steps over T tiles of W hidden units,
// fused with the next row's forward over the same tiles when kForward.
// Per lane j, in the per-unit loop's order:
//   dh = 0 + err[0]*w2[0][j] + err[1]*w2[1][j] + ...   (pre-update w2)
//   per class: v2[c][j] = m*v2[c][j] - (lr*err[c])*hid[j]; w2 += v2
//   g  = lr * ((dh*hid[j]) * (1 - hid[j]))
//   per w1 row f, bias row first: v1 = m*v1 - g*x[f]; w1 += v1
// With kForward each fresh w1 row is accumulated into z at once, bias row
// first, so each lane's chain keeps the per-unit dot's order while the
// weights stay in registers. Lanes never meet, so every step is exact.
template <class V, std::size_t T, bool kForward>
__attribute__((always_inline)) inline void mlp_backward(
    MlpWeights& net, std::size_t base, const double* __restrict x,
    const double* __restrict hid, const double* __restrict err, double lr,
    double m, const double* __restrict next_x, double* __restrict z) {
  constexpr std::size_t W = sizeof(V) / sizeof(double);
  const std::size_t stride = mlp_padded_units(net.h);
  V hv[T];
  V gv[T];  // dh, then g
  V acc[T];
  for (std::size_t t = 0; t < T; ++t) {
    hv[t] = loadv<V>(hid + base + W * t);
    gv[t] = V{};
  }
  for (std::size_t c = 0; c < net.k; ++c) {
    const double e = err[c];
    const double scale = lr * e;
    double* w2 = net.w2.data() + c * (stride + 1) + base;
    double* v2 = net.v2.data() + c * (stride + 1) + base;
    for (std::size_t t = 0; t < T; ++t) {
      const V w = loadv<V>(w2 + W * t);
      gv[t] += e * w;
      const V v = m * loadv<V>(v2 + W * t) - scale * hv[t];
      storev(v2 + W * t, v);
      storev(w2 + W * t, w + v);
    }
  }
  for (std::size_t t = 0; t < T; ++t)
    gv[t] = lr * ((gv[t] * hv[t]) * (1.0 - hv[t]));

  double* w1 = net.w1.data() + base;
  double* v1 = net.v1.data() + base;
  for (std::size_t t = 0; t < T; ++t) {
    const std::size_t p = net.d * stride + W * t;
    const V v = m * loadv<V>(v1 + p) - gv[t];
    const V w = loadv<V>(w1 + p) + v;
    storev(v1 + p, v);
    storev(w1 + p, w);
    if constexpr (kForward) acc[t] = w;
  }
  for (std::size_t f = 0; f < net.d; ++f)
    for (std::size_t t = 0; t < T; ++t) {
      const std::size_t p = f * stride + W * t;
      const V v = m * loadv<V>(v1 + p) - gv[t] * x[f];
      const V w = loadv<V>(w1 + p) + v;
      storev(v1 + p, v);
      storev(w1 + p, w);
      if constexpr (kForward) acc[t] += w * next_x[f];
    }
  if constexpr (kForward)
    for (std::size_t t = 0; t < T; ++t) storev(z + base + W * t, acc[t]);
}

// mlp_backward over every tile of the `lanes` units, two tiles at a time.
template <class V, bool kForward>
__attribute__((always_inline)) inline void mlp_backward_row(
    MlpWeights& net, std::size_t lanes, const double* x,
    const double* hid, const double* err, double lr, double m,
    const double* next_x, double* z) {
  constexpr std::size_t W = sizeof(V) / sizeof(double);
  std::size_t base = 0;
  for (; base + 2 * W <= lanes; base += 2 * W)
    mlp_backward<V, 2, kForward>(net, base, x, hid, err, lr, m, next_x, z);
  if (base < lanes)
    mlp_backward<V, 1, kForward>(net, base, x, hid, err, lr, m, next_x, z);
}

template <class V>
__attribute__((always_inline)) inline void mlp_epoch_body(
    MlpWeights& net, const double* __restrict x,
    const std::size_t* __restrict labels, const std::size_t* __restrict order,
    std::size_t n, double lr, double m) {
  const std::size_t d = net.d;
  const std::size_t h = net.h;
  const std::size_t k = net.k;
  const std::size_t stride = mlp_padded_units(h);
  // The lanes this width needs (lanes <= stride); pad lanes beyond them
  // are never touched.
  constexpr std::size_t W = sizeof(V) / sizeof(double);
  static_assert(kMlpLanes % W == 0, "a tile must not straddle the stride");
  const std::size_t lanes = (h + W - 1) / W * W;
  // z and hidden, stride each, then the k outputs and errors. Only units
  // j < h of hidden are ever written, so its pad lanes stay 0, and that
  // keeps the pad lanes of w1, v1, w2 and v2 at 0.
  std::vector<double> scratch(2 * stride + 2 * k, 0.0);
  double* z = scratch.data();
  double* hid = z + stride;
  double* out = hid + stride;
  double* err = out + k;
  // Row 0's forward runs alone; every later one is fused into the
  // previous row's backward.
  if (n > 0) {
    const double* x0 = x + order[0] * d;
    std::size_t base = 0;
    for (; base + 2 * W <= lanes; base += 2 * W)
      mlp_forward<V, 2>(net.w1.data() + base, stride, d, x0, z + base);
    if (base < lanes)
      mlp_forward<V, 1>(net.w1.data() + base, stride, d, x0, z + base);
  }
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t i = order[r];
    for (std::size_t j = 0; j < h; ++j) hid[j] = sigmoid(z[j]);
    for (std::size_t c = 0; c < k; ++c) {
      const double* w2 = net.w2.data() + c * (stride + 1);
      out[c] = dot({w2, h}, {hid, h}, w2[stride]);
    }
    softmax_inplace({out, k});

    // Cross-entropy + softmax: err = out - onehot; the output biases step
    // here, the unit weights in mlp_backward.
    const std::size_t y = labels[i];
    for (std::size_t c = 0; c < k; ++c) {
      err[c] = out[c] - (c == y ? 1.0 : 0.0);
      double& v2 = net.v2[c * (stride + 1) + stride];
      v2 = m * v2 - lr * err[c];
      net.w2[c * (stride + 1) + stride] += v2;
    }
    const double* xi = x + i * d;
    if (r + 1 < n)
      mlp_backward_row<V, true>(net, lanes, xi, hid, err, lr, m,
                                x + order[r + 1] * d, z);
    else
      mlp_backward_row<V, false>(net, lanes, xi, hid, err, lr, m, nullptr,
                                 z);
  }
}
#pragma GCC diagnostic pop

// Dispatch by hand instead of target_clones: the ifunc resolvers clones
// emit run before sanitizer runtimes initialize and crash TSan/ASan
// binaries at startup, while a dispatch switch on a cached choice is
// sanitizer-clean.
#if defined(__x86_64__) && defined(__GNUC__)
#define HMD_SIMD_DISPATCH 1

// Replicates the query into one int32 per stored pair — qx[2p] in the low
// half, qx[2p+1] (or 0 for the odd-width pad) in the high half — so the
// inner loops broadcast one int32 per pair instead of re-packing int16s.
// dims <= 128 is guaranteed by the screen's overflow gate, so a fixed
// 64-pair scratch suffices.
inline std::size_t pack_query_pairs(const std::int16_t* qx, std::size_t dims,
                                    std::int32_t* qp) {
  const std::size_t dpairs = (dims + 1) / 2;
  for (std::size_t p = 0; p < dims / 2; ++p)
    qp[p] = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(static_cast<std::uint16_t>(qx[2 * p])) |
        (static_cast<std::uint32_t>(static_cast<std::uint16_t>(qx[2 * p + 1]))
         << 16));
  if (dims % 2 != 0)
    qp[dpairs - 1] = static_cast<std::int32_t>(
        static_cast<std::uint16_t>(qx[dims - 1]));
  return dpairs;
}

// One vpmaddwd squares-and-sums a dimension pair for 16 rows: diff fits
// int16 (|q - p| <= 4094), diff² pairs fit int32 (2·4094² < 2³¹), and the
// per-row total stays exact for dims <= 128 — identical to screen_body.
// Two accumulators split the madd->add dependency chain so consecutive
// pairs issue back to back instead of serializing on the adder.
__attribute__((target("avx512f,avx512bw"))) void screen_avx512(
    const std::int16_t* __restrict block, const std::int16_t* __restrict qx,
    std::size_t dims, std::size_t rows, std::int32_t* __restrict acc) {
  std::int32_t qp[64];
  const std::size_t dpairs = pack_query_pairs(qx, dims, qp);
  for (std::size_t g = 0; g < rows; g += 16) {
    const std::int16_t* base = block + 2 * g;
    __m512i s0 = _mm512_setzero_si512();
    __m512i s1 = _mm512_setzero_si512();
    std::size_t p = 0;
    for (; p + 2 <= dpairs; p += 2) {
      const __m512i d0 = _mm512_sub_epi16(
          _mm512_set1_epi32(qp[p]),
          _mm512_loadu_si512(static_cast<const void*>(base + p * 2 * rows)));
      const __m512i d1 = _mm512_sub_epi16(
          _mm512_set1_epi32(qp[p + 1]),
          _mm512_loadu_si512(
              static_cast<const void*>(base + (p + 1) * 2 * rows)));
      s0 = _mm512_add_epi32(s0, _mm512_madd_epi16(d0, d0));
      s1 = _mm512_add_epi32(s1, _mm512_madd_epi16(d1, d1));
    }
    if (p < dpairs) {
      const __m512i d0 = _mm512_sub_epi16(
          _mm512_set1_epi32(qp[p]),
          _mm512_loadu_si512(static_cast<const void*>(base + p * 2 * rows)));
      s0 = _mm512_add_epi32(s0, _mm512_madd_epi16(d0, d0));
    }
    _mm512_storeu_si512(static_cast<void*>(acc + g),
                        _mm512_add_epi32(s0, s1));
  }
}

__attribute__((target("avx2"))) void screen_avx2(
    const std::int16_t* __restrict block, const std::int16_t* __restrict qx,
    std::size_t dims, std::size_t rows, std::int32_t* __restrict acc) {
  std::int32_t qp[64];
  const std::size_t dpairs = pack_query_pairs(qx, dims, qp);
  for (std::size_t g = 0; g < rows; g += 8) {
    const std::int16_t* base = block + 2 * g;
    __m256i s0 = _mm256_setzero_si256();
    __m256i s1 = _mm256_setzero_si256();
    std::size_t p = 0;
    for (; p + 2 <= dpairs; p += 2) {
      const __m256i d0 = _mm256_sub_epi16(
          _mm256_set1_epi32(qp[p]),
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(base + p * 2 * rows)));
      const __m256i d1 = _mm256_sub_epi16(
          _mm256_set1_epi32(qp[p + 1]),
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(base + (p + 1) * 2 * rows)));
      s0 = _mm256_add_epi32(s0, _mm256_madd_epi16(d0, d0));
      s1 = _mm256_add_epi32(s1, _mm256_madd_epi16(d1, d1));
    }
    if (p < dpairs) {
      const __m256i d0 = _mm256_sub_epi16(
          _mm256_set1_epi32(qp[p]),
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(base + p * 2 * rows)));
      s0 = _mm256_add_epi32(s0, _mm256_madd_epi16(d0, d0));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + g),
                        _mm256_add_epi32(s0, s1));
  }
}

__attribute__((target("avx512f"))) void mask_avx512(
    const std::int32_t* __restrict acc, std::size_t n, std::int32_t thr,
    std::uint64_t* __restrict mask) {
  const __m512i tv = _mm512_set1_epi32(thr);
  for (std::size_t w = 0; w * 64 < n; ++w) {
    std::uint64_t m = 0;
    const std::size_t base = w * 64;
    const std::size_t lim = std::min<std::size_t>(64, n - base);
    for (std::size_t off = 0; off < lim; off += 16) {
      const __mmask16 k = _mm512_cmple_epi32_mask(
          _mm512_loadu_si512(static_cast<const void*>(acc + base + off)), tv);
      m |= std::uint64_t{k} << off;
    }
    mask[w] = m;
  }
}

__attribute__((target("avx2"))) void mask_avx2(
    const std::int32_t* __restrict acc, std::size_t n, std::int32_t thr,
    std::uint64_t* __restrict mask) {
  const __m256i tv = _mm256_set1_epi32(thr);
  for (std::size_t w = 0; w * 64 < n; ++w) {
    std::uint64_t m = 0;
    const std::size_t base = w * 64;
    const std::size_t lim = std::min<std::size_t>(64, n - base);
    for (std::size_t off = 0; off < lim; off += 8) {
      // AVX2 has no cmple_epi32: le == !gt, inverted after movemask.
      const __m256i gt = _mm256_cmpgt_epi32(
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(acc + base + off)),
          tv);
      const auto bits = static_cast<std::uint32_t>(
          _mm256_movemask_ps(_mm256_castsi256_ps(gt)));
      m |= std::uint64_t{~bits & 0xFFu} << off;
    }
    mask[w] = m;
  }
}

// GCC 12's avx512fintrin.h seeds _mm512_max_pd and _mm512_reduce_add_pd
// with _mm512_undefined_pd(), which -Wuninitialized flags in every caller
// (GCC bug 105593, fixed in 13). The reduction order is pinned, so the
// warning is silenced here rather than worked around.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ < 13
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
__attribute__((target("avx512f"))) double bound_avx512(
    const double* __restrict lo, const double* __restrict hi,
    const double* __restrict x, std::size_t d) {
  __m512d acc = _mm512_setzero_pd();
  const __m512d zero = _mm512_setzero_pd();
  std::size_t j = 0;
  for (; j + 8 <= d; j += 8) {
    const __m512d xv = _mm512_loadu_pd(x + j);
    const __m512d a = _mm512_sub_pd(_mm512_loadu_pd(lo + j), xv);
    const __m512d b = _mm512_sub_pd(xv, _mm512_loadu_pd(hi + j));
    const __m512d t = _mm512_max_pd(_mm512_max_pd(a, b), zero);
    acc = _mm512_fmadd_pd(t, t, acc);
  }
  double s = _mm512_reduce_add_pd(acc);
  for (; j < d; ++j) {
    const double a = lo[j] - x[j];
    const double b = x[j] - hi[j];
    double t = a > b ? a : b;
    t = t > 0.0 ? t : 0.0;
    s += t * t;
  }
  return s;
}
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ < 13
#pragma GCC diagnostic pop
#endif

__attribute__((target("avx2"))) double bound_avx2(
    const double* __restrict lo, const double* __restrict hi,
    const double* __restrict x, std::size_t d) {
  __m256d acc = _mm256_setzero_pd();
  const __m256d zero = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    const __m256d xv = _mm256_loadu_pd(x + j);
    const __m256d a = _mm256_sub_pd(_mm256_loadu_pd(lo + j), xv);
    const __m256d b = _mm256_sub_pd(xv, _mm256_loadu_pd(hi + j));
    const __m256d t = _mm256_max_pd(_mm256_max_pd(a, b), zero);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(t, t));
  }
  const __m128d pair =
      _mm_add_pd(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd(acc, 1));
  double s = _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
  for (; j < d; ++j) {
    const double a = lo[j] - x[j];
    const double b = x[j] - hi[j];
    double t = a > b ? a : b;
    t = t > 0.0 ? t : 0.0;
    s += t * t;
  }
  return s;
}

__attribute__((target("avx512f,avx512bw"))) void affine_avx512(
    const double* __restrict a, std::size_t rows, std::size_t d,
    const double* __restrict packed, std::size_t k, double* __restrict out) {
  affine_body(a, rows, d, packed, k, out);
}

__attribute__((target("avx2"))) void affine_avx2(
    const double* __restrict a, std::size_t rows, std::size_t d,
    const double* __restrict packed, std::size_t k, double* __restrict out) {
  affine_body(a, rows, d, packed, k, out);
}

// The MLP epoch has no AVX-512 clone: its body runs 4-lane ymm tiles,
// and an avx512f clone of it did the same vector operations at the same
// speed (docs/perf.md), so Isa::kAvx512 runs this one.
__attribute__((target("avx2"))) void mlp_epoch_avx2(
    MlpWeights& net, const double* __restrict x,
    const std::size_t* __restrict labels, const std::size_t* __restrict order,
    std::size_t n, double lr, double m) {
  mlp_epoch_body<hmd_v4df>(net, x, labels, order, n, lr, m);
}
#endif

/// force_isa() override; -1 = unset.
std::atomic<int> g_forced{-1};

Isa best_supported_isa() {
#ifdef HMD_SIMD_DISPATCH
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw"))
    return Isa::kAvx512;
  if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
#endif
  return Isa::kScalar;
}

/// HMD_KERNEL_ISA, resolved once (heterogeneous CI runners set it so every
/// job runs the same codepath); the best supported ISA otherwise. The
/// request is clamped to what this CPU supports — a CI matrix can export
/// HMD_KERNEL_ISA=avx512 fleet-wide and the avx2-only runners simply run
/// their best tier instead of aborting. Unknown names still fail fast.
Isa env_or_best_isa() {
  static const Isa choice = [] {
    if (const char* env = std::getenv("HMD_KERNEL_ISA");
        env != nullptr && env[0] != '\0')
      return resolve_isa_request(env);
    return best_supported_isa();
  }();
  return choice;
}

}  // namespace

const char* to_string(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kAvx2: return "avx2";
    case Isa::kAvx512: return "avx512";
  }
  return "scalar";
}

std::optional<Isa> isa_from_name(const std::string& name) {
  if (name == "scalar") return Isa::kScalar;
  if (name == "avx2") return Isa::kAvx2;
  if (name == "avx512") return Isa::kAvx512;
  return std::nullopt;
}

Isa resolve_isa_request(const std::string& name) {
  const std::optional<Isa> parsed = isa_from_name(name);
  HMD_REQUIRE(parsed.has_value(), "HMD_KERNEL_ISA: unknown ISA '" + name +
                                      "' (known: scalar avx2 avx512)");
  return std::min(*parsed, best_supported_isa());
}

bool isa_supported(Isa isa) {
  return static_cast<int>(isa) <= static_cast<int>(best_supported_isa());
}

Isa active_isa() {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Isa>(forced);
  return env_or_best_isa();
}

void force_isa(Isa isa) {
  HMD_REQUIRE(isa_supported(isa),
              std::string("force_isa: ISA '") + to_string(isa) +
                  "' is not supported by this CPU");
  g_forced.store(static_cast<int>(isa), std::memory_order_relaxed);
}

void force_isa_by_name(const std::string& name) {
  const std::optional<Isa> parsed = isa_from_name(name);
  HMD_REQUIRE(parsed.has_value(), "--isa: unknown ISA '" + name +
                                      "' (known: scalar avx2 avx512)");
  force_isa(*parsed);
}

void screen_squared_l2_i16(const std::int16_t* block, const std::int16_t* qx,
                           std::size_t dims, std::size_t rows,
                           std::int32_t* acc) {
  screen_squared_l2_i16_as(active_isa(), block, qx, dims, rows, acc);
}

void screen_squared_l2_i16_as(Isa isa, const std::int16_t* block,
                              const std::int16_t* qx, std::size_t dims,
                              std::size_t rows, std::int32_t* acc) {
#ifdef HMD_SIMD_DISPATCH
  switch (isa) {
    case Isa::kAvx512: screen_avx512(block, qx, dims, rows, acc); return;
    case Isa::kAvx2: screen_avx2(block, qx, dims, rows, acc); return;
    case Isa::kScalar: break;
  }
#else
  (void)isa;
#endif
  screen_body(block, qx, dims, rows, acc);
}

void mask_le_i32(const std::int32_t* acc, std::size_t n, std::int32_t thr,
                 std::uint64_t* mask) {
  mask_le_i32_as(active_isa(), acc, n, thr, mask);
}

void mask_le_i32_as(Isa isa, const std::int32_t* acc, std::size_t n,
                    std::int32_t thr, std::uint64_t* mask) {
#ifdef HMD_SIMD_DISPATCH
  switch (isa) {
    case Isa::kAvx512: mask_avx512(acc, n, thr, mask); return;
    case Isa::kAvx2: mask_avx2(acc, n, thr, mask); return;
    case Isa::kScalar: break;
  }
#else
  (void)isa;
#endif
  mask_body(acc, n, thr, mask);
}

double bound_squared_l2(const double* lo, const double* hi, const double* x,
                        std::size_t d) {
  return bound_squared_l2_as(active_isa(), lo, hi, x, d);
}

double bound_squared_l2_as(Isa isa, const double* lo, const double* hi,
                           const double* x, std::size_t d) {
#ifdef HMD_SIMD_DISPATCH
  switch (isa) {
    case Isa::kAvx512: return bound_avx512(lo, hi, x, d);
    case Isa::kAvx2: return bound_avx2(lo, hi, x, d);
    case Isa::kScalar: break;
  }
#else
  (void)isa;
#endif
  return bound_body(lo, hi, x, d);
}

std::vector<double> pack_weights_feature_major(
    const std::vector<std::vector<double>>& w) {
  HMD_REQUIRE(!w.empty() && !w.front().empty(),
              "pack_weights_feature_major: empty weights");
  const std::size_t k = w.size();
  const std::size_t d = w.front().size() - 1;  // bias last
  std::vector<double> packed((d + 1) * k);
  for (std::size_t c = 0; c < k; ++c) {
    HMD_REQUIRE(w[c].size() == d + 1,
                "pack_weights_feature_major: ragged weights");
    for (std::size_t f = 0; f <= d; ++f) packed[f * k + c] = w[c][f];
  }
  return packed;
}

void affine_batch(const double* a, std::size_t rows, std::size_t d,
                  const double* packed, std::size_t k, double* out) {
  affine_batch_as(active_isa(), a, rows, d, packed, k, out);
}

void affine_batch_as(Isa isa, const double* a, std::size_t rows,
                     std::size_t d, const double* packed, std::size_t k,
                     double* out) {
#ifdef HMD_SIMD_DISPATCH
  switch (isa) {
    case Isa::kAvx512: affine_avx512(a, rows, d, packed, k, out); return;
    case Isa::kAvx2: affine_avx2(a, rows, d, packed, k, out); return;
    case Isa::kScalar: break;
  }
#else
  (void)isa;
#endif
  affine_body(a, rows, d, packed, k, out);
}

MlpWeights MlpWeights::pack(const std::vector<std::vector<double>>& units,
                            const std::vector<std::vector<double>>& classes) {
  MlpWeights net;
  net.h = units.size();
  net.d = units.empty() ? 0 : units[0].size() - 1;
  net.k = classes.size();
  const std::size_t stride = mlp_padded_units(net.h);
  net.w1.assign((net.d + 1) * stride, 0.0);
  net.w2.assign(net.k * (stride + 1), 0.0);
  for (std::size_t j = 0; j < net.h; ++j) {
    HMD_REQUIRE(units[j].size() == net.d + 1, "MLP unit rows differ in size");
    for (std::size_t f = 0; f <= net.d; ++f)
      net.w1[f * stride + j] = units[j][f];
  }
  for (std::size_t c = 0; c < net.k; ++c) {
    HMD_REQUIRE(classes[c].size() == net.h + 1, "MLP class row size != h + 1");
    double* row = net.w2.data() + c * (stride + 1);
    std::copy_n(classes[c].begin(), net.h, row);
    row[stride] = classes[c][net.h];
  }
  net.v1.assign(net.w1.size(), 0.0);
  net.v2.assign(net.w2.size(), 0.0);
  return net;
}

void MlpWeights::unpack(std::vector<std::vector<double>>& units,
                        std::vector<std::vector<double>>& classes) const {
  const std::size_t stride = mlp_padded_units(h);
  units.assign(h, std::vector<double>(d + 1));
  for (std::size_t j = 0; j < h; ++j)
    for (std::size_t f = 0; f <= d; ++f) units[j][f] = w1[f * stride + j];
  classes.assign(k, std::vector<double>(h + 1));
  for (std::size_t c = 0; c < k; ++c) {
    const double* row = w2.data() + c * (stride + 1);
    std::copy_n(row, h, classes[c].begin());
    classes[c][h] = row[stride];
  }
}

void mlp_sgd_epoch(MlpWeights& net, const double* x,
                   const std::size_t* labels, const std::size_t* order,
                   std::size_t n, double lr, double m) {
  mlp_sgd_epoch_as(active_isa(), net, x, labels, order, n, lr, m);
}

void mlp_sgd_epoch_as(Isa isa, MlpWeights& net, const double* x,
                      const std::size_t* labels, const std::size_t* order,
                      std::size_t n, double lr, double m) {
#ifdef HMD_SIMD_DISPATCH
  switch (isa) {
    case Isa::kAvx512:  // the AVX2 clone is the AVX-512 path too
    case Isa::kAvx2: mlp_epoch_avx2(net, x, labels, order, n, lr, m); return;
    case Isa::kScalar: break;
  }
#else
  (void)isa;
#endif
  mlp_epoch_body<hmd_v2df>(net, x, labels, order, n, lr, m);
}

void gemv_row_major(std::span<const double> matrix, std::size_t rows,
                    std::span<const double> x, std::span<double> out) {
  const std::size_t cols = x.size();
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = dot({matrix.data() + r * cols, cols}, x);
  }
}

}  // namespace hmd::ml::kernels
