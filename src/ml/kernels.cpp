#include "ml/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "util/error.hpp"

// This file MUST be compiled with -ffp-contract=off (pinned in
// src/ml/CMakeLists.txt): the AVX-512 clones of the float GEMM would
// otherwise fuse `acc += x*w` into an FMA and skip the intermediate
// rounding the scalar body performs, breaking the clone-for-clone
// bit-exactness the dispatch-parity tests pin.

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
#if defined(__GNUC__)
__attribute__((always_inline))
#endif
inline void
affine_body_wide(const double* __restrict a, std::size_t rows, std::size_t d,
                 const double* __restrict packed, std::size_t k,
                 double* __restrict out) {
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

// Main shape for the library's small class/hidden counts (k <= 16): tiles
// of 8 rows run in one generic 8-lane vector (GCC vector extension — the
// AVX-512 clone maps it to one zmm, AVX2 to two ymm, the scalar reference
// to plain doubles), so the math vectorizes across ROWS with full lanes
// regardless of k — unlike the wide shape whose innermost k-loop leaves
// most of a vector idle at k = 6. Every lane owns one (row, output)
// reduction accumulated bias-first then features ascending: per-lane
// independence keeps every variant bit-identical to the scalar order.
#if defined(__GNUC__)
typedef double hmd_v8df __attribute__((vector_size(64), aligned(8)));

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
#else
inline void affine_body(const double* a, std::size_t rows, std::size_t d,
                        const double* packed, std::size_t k, double* out) {
  affine_body_wide(a, rows, d, packed, k, out);
}
#endif

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

void gemv_row_major(std::span<const double> matrix, std::size_t rows,
                    std::span<const double> x, std::span<double> out) {
  const std::size_t cols = x.size();
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = dot({matrix.data() + r * cols, cols}, x);
  }
}

}  // namespace hmd::ml::kernels
