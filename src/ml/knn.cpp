#include "ml/knn.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "ml/kernels.hpp"
#include "util/error.hpp"

namespace hmd::ml {

namespace {

// The k-closest heap protocol every scoring path must reproduce exactly:
// push_heap/pop_heap on a vector of (distance², label) with the default
// pair comparator — a bit-level mirror of the pre-refactor per-row
// std::priority_queue, ties included.
void offer(std::vector<std::pair<double, std::size_t>>& heap, std::size_t k,
           double d2, std::size_t label) {
  if (heap.size() < k) {
    heap.emplace_back(d2, label);
    std::push_heap(heap.begin(), heap.end());
  } else if (d2 < heap.front().first) {
    std::pop_heap(heap.begin(), heap.end());
    heap.back() = {d2, label};
    std::push_heap(heap.begin(), heap.end());
  }
}

// Integer screen threshold derived from the current k-th distance. The
// screen sum S_q is an exact-integer lower bound on the true distance:
// with per-coordinate reconstruction error at most
// err_j = |x_j - dequant(qx_j)| + qscale/2 and E = ||err||_2, the triangle
// inequality gives ||x - p|| >= qscale*sqrt(S_q) - E. A candidate with
// qscale*sqrt(S_q) - E > sqrt(kth) therefore cannot beat the k-th
// distance, and rejecting it unscanned leaves the verdict unchanged. The
// 1e-12 relative slack dwarfs the ~1e-15 rounding of the exact double
// scan while staying far below the quantization margin, so a candidate
// with screen sum > thr provably cannot enter the heap.
std::int32_t screen_threshold(double kth_d2, double err, double qscale) {
  const double t = (std::sqrt(kth_d2) * (1.0 + 1e-12) + err) / qscale;
  const double t_sq = t * t;
  return t_sq >= 2147483647.0 ? std::numeric_limits<std::int32_t>::max()
                              : static_cast<std::int32_t>(t_sq);
}

}  // namespace

void Knn::train(const DatasetView& data) {
  require_trainable(data);
  HMD_REQUIRE(requested_k_ >= 1, "Knn: k must be at least 1");
  num_classes_ = data.num_classes();
  standardizer_.fit(data);
  const std::size_t n = data.num_instances();
  const std::size_t d = data.num_features();
  k_ = std::min(requested_k_, n);
  points_.assign(n * d, 0.0);
  labels_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    kernels::standardize_into(data.features_of(i), standardizer_.means(),
                              standardizer_.stddevs(),
                              {points_.data() + i * d, d});
    labels_[i] = data.class_of(i);
  }
  build_index();
}

void Knn::build_index() {
  // One rule for a store of any size: a node of at most kLeafBlock points
  // is a leaf, so a small store is a single leaf.
  constexpr std::size_t B = kernels::kLeafBlock;
  const std::size_t d = dim();
  const std::size_t n = labels_.size();
  nodes_.clear();
  box_lo_.clear();
  box_hi_.clear();
  perm_.clear();
  tree_points_.clear();
  qtree_.clear();
  // Box pruning and the grid need finite geometry; a store with non-finite
  // values (degenerate upstream data) is scored by the plain scan.
  for (double v : points_)
    if (!std::isfinite(v)) return;

  perm_.resize(n);
  std::iota(perm_.begin(), perm_.end(), 0u);

  const auto build = [&](auto&& self, std::uint32_t begin,
                         std::uint32_t end) -> std::uint32_t {
    const auto id = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(KdNode{0, 0, begin, end, 0});
    // Tight bounding box over the node's points (axis j of node id lives
    // at id*d + j).
    box_lo_.resize(box_lo_.size() + d,
                   std::numeric_limits<double>::infinity());
    box_hi_.resize(box_hi_.size() + d,
                   -std::numeric_limits<double>::infinity());
    std::size_t widest = 0;
    {
      double* lo = box_lo_.data() + std::size_t{id} * d;
      double* hi = box_hi_.data() + std::size_t{id} * d;
      for (std::uint32_t p = begin; p < end; ++p) {
        const double* row = points_.data() + std::size_t{perm_[p]} * d;
        for (std::size_t j = 0; j < d; ++j) {
          lo[j] = std::min(lo[j], row[j]);
          hi[j] = std::max(hi[j], row[j]);
        }
      }
      for (std::size_t j = 1; j < d; ++j)
        if (hi[j] - lo[j] > hi[widest] - lo[widest]) widest = j;
    }
    if (end - begin <= B) return id;  // leaf
    const std::uint32_t mid = begin + (end - begin) / 2;
    std::nth_element(perm_.begin() + begin, perm_.begin() + mid,
                     perm_.begin() + end,
                     [&](std::uint32_t a, std::uint32_t b) {
                       return points_[std::size_t{a} * d + widest] <
                              points_[std::size_t{b} * d + widest];
                     });
    // Children are created after this node, so their ids are nonzero and
    // box_lo_/box_hi_ grow append-only.
    const std::uint32_t left = self(self, begin, mid);
    const std::uint32_t right = self(self, mid, end);
    nodes_[id].left = left;
    nodes_[id].right = right;
    return id;
  };
  build(build, 0, static_cast<std::uint32_t>(n));

  // Permuted mirror of the store so leaf scans stream contiguous rows.
  tree_points_.resize(n * d);
  for (std::size_t pos = 0; pos < n; ++pos)
    std::copy_n(points_.data() + std::size_t{perm_[pos]} * d, d,
                tree_points_.data() + pos * d);

  // The grid spans the root box, which holds every stored value.
  const double lo = *std::min_element(box_lo_.begin(), box_lo_.begin() + d);
  const double hi = *std::max_element(box_hi_.begin(), box_hi_.begin() + d);
  const double range = hi - lo;
  // Past 128 dimensions (the screen's query scratch packs at most 64
  // dimension pairs), or when the values span more than a double can hold
  // (range overflows to inf, and the reconstruction error would be NaN),
  // the leaves are scanned in doubles alone.
  if (d > 128 || !std::isfinite(range)) return;
  qlo_ = lo;
  // Grid span: the finest even span with d * span² <= INT32_MAX (so
  // per-lane screen sums cannot overflow) whose diffs still fit int16.
  // At d = 128 this is the 4094-step 12-bit grid; narrower stores get a
  // proportionally finer grid, a proportionally smaller reconstruction
  // error, and therefore a tighter screen threshold — fewer
  // quantization-slack survivors reach the exact double scan.
  std::int64_t span = static_cast<std::int64_t>(
      std::sqrt(2147483647.0 / static_cast<double>(d)));
  span &= ~std::int64_t{1};  // even: the centre offset span/2 is integral
  while (span > 2 && span * span * static_cast<std::int64_t>(d) > 2147483647)
    span -= 2;
  qspan_ = std::min<std::int64_t>(span, 32766);
  qscale_ = range > 0.0 ? range / static_cast<double>(qspan_) : 1.0;

  // One int16 screen block per leaf, sized to the leaf's actual row count
  // rounded up to the kernel's 16-row granule — NOT to kLeafBlock: the
  // midpoint split snaps real leaf sizes to n/2^depth, and screening a
  // block padded all the way to kLeafBlock would waste up to half the
  // screen bandwidth on zero rows. Training values always land inside
  // [qlo_, qlo_ + range], so the rounded grid index is in [0, qspan_] and
  // the representation error is at most qscale_/2 per coordinate.
  for (KdNode& nd : nodes_) {
    if (nd.left != 0) continue;
    const std::size_t rows16 = (nd.end - nd.begin + 15) / 16 * 16;
    nd.qoff = static_cast<std::uint32_t>(qtree_.size());
    qtree_.resize(qtree_.size() + kernels::screen_block_entries(rows16, d),
                  0);
    for (std::uint32_t b = 0; b < nd.end - nd.begin; ++b) {
      const double* row = tree_points_.data() + std::size_t{nd.begin + b} * d;
      for (std::size_t j = 0; j < d; ++j) {
        const double t = (row[j] - qlo_) / qscale_;
        qtree_[nd.qoff + kernels::screen_block_index(rows16, b, j)] =
            static_cast<std::int16_t>(std::llround(t) - qspan_ / 2);
      }
    }
  }
}

double Knn::quantize_query(std::span<const double> x,
                           std::vector<std::int16_t>& qx) const {
  // Quantize the query onto the training grid, tracking its exact
  // reconstruction error (clamped coordinates just widen the error term —
  // the bound stays rigorous; non-finite queries never reach the screen).
  const std::size_t d = x.size();
  qx.resize(d);
  double err_sq = 0.0;
  for (std::size_t j = 0; j < d; ++j) {
    const double t = (x[j] - qlo_) / qscale_;
    long long q = 0;
    if (t >= static_cast<double>(qspan_))
      q = qspan_;
    else if (t >= 0.0)
      q = std::llround(t);
    const double recon = qlo_ + qscale_ * static_cast<double>(q);
    qx[j] = static_cast<std::int16_t>(q - qspan_ / 2);
    const double e = std::abs(x[j] - recon) + 0.5 * qscale_;
    err_sq += e * e;
  }
  return std::sqrt(err_sq);
}

// Plain exact scan in store order: the path for a non-finite query or a
// store holding a non-finite value.
void Knn::score_scan(std::span<const double> x, Scratch& s) const {
  const std::size_t d = x.size();
  s.heap.clear();
  for (std::size_t i = 0; i < labels_.size(); ++i)
    offer(s.heap, k_, kernels::squared_l2({points_.data() + i * d, d}, x),
          labels_[i]);
}

// Exact KD-tree scan in two phases.
//
// Phase 1 walks the tree near-child-first (a LIFO stack of (bound, id)
// pairs; the nearer child is pushed last so it is explored first),
// keeping a pure-d2 heap of the k smallest exact distances seen so far.
// Once full, the heap's top upper-bounds the true k-th distance T, and
// because a k-smallest multiset is visit-order independent it ends
// exactly at T. Subtrees are pruned when their box bound exceeds the
// current k-th — at push time and again at pop time, by which point kth
// has usually tightened (descending the near side first makes most far
// entries die stale). Leaves are screened with the int16 bound first.
// Every rejection — stale pop, box prune, screen — discards only
// candidates provably farther than the current k-th >= T, so every
// training point with d2 <= T is exactly scanned and collected.
//
// The box bound is kernels::bound_squared_l2 (per axis
// t_j = max(0, lo_j - x_j, x_j - hi_j) <= |p_j - x_j| for any p in the
// box) shrunk by a relative 1e-12. The kernel's SIMD clones reassociate
// the reduction, so the raw value can sit a few ulps (~1e-14 relative)
// above the exact sum — and the left-to-right fl(d2) of an in-box point
// can itself round ~1e-15 below ITS exact value, which the exact sum
// lower-bounds. The 1e-12 shrink dwarfs both roundings, so the shrunk
// bound never overshoots any fl(d2) it prunes against.
//
// Phase 2 sorts the collected (d2, original index) superset of
// {i : d2_i <= T} by original index and replays it through the exact
// (d2, label) heap protocol. Replay is verdict-identical to the full
// scan: an entry with d2 > T is always the lexicographic maximum of the
// pair-ordered heap whenever one is present, so such fillers are evicted
// before any <=T entry, <=T entries are admitted unconditionally while a
// filler occupies a full heap, and evictions among <=T entries only
// happen when the heap holds exactly the <=T multiset the full scan's
// heap holds at the same index. The final heap therefore carries the
// identical (d2, label) multiset — and the distribution depends on
// nothing else.
void Knn::score_indexed(std::span<const double> x, Scratch& s) const {
  constexpr std::size_t B = kernels::kLeafBlock;
  const std::size_t d = x.size();
  const double inf = std::numeric_limits<double>::infinity();

  s.dheap.clear();
  s.cand.clear();
  double kth = inf;
  // Returns true when kth just became finite or shrank — the moment the
  // screen threshold can tighten.
  const auto offer_d2 = [&](double d2) {
    if (s.dheap.size() < k_) {
      s.dheap.push_back(d2);
      std::push_heap(s.dheap.begin(), s.dheap.end());
      if (s.dheap.size() < k_) return false;
      kth = s.dheap.front();
      return true;
    }
    if (d2 < s.dheap.front()) {
      std::pop_heap(s.dheap.begin(), s.dheap.end());
      s.dheap.back() = d2;
      std::push_heap(s.dheap.begin(), s.dheap.end());
      kth = s.dheap.front();
      return true;
    }
    return false;
  };

  const bool screen = !qtree_.empty();
  const double err = screen ? quantize_query(x, s.qx) : 0.0;
  // One dispatch resolution per query; the leaf loop calls kernels tens
  // of times and need not re-read the override atomics every time.
  const kernels::Isa isa = kernels::active_isa();

  const auto box_bound = [&](std::uint32_t id) {
    return kernels::bound_squared_l2_as(
               isa, box_lo_.data() + std::size_t{id} * d,
               box_hi_.data() + std::size_t{id} * d, x.data(), d) *
           (1.0 - 1e-12);
  };

  std::array<std::int32_t, B> acc;
  std::array<std::uint64_t, (B + 63) / 64> mask;
  s.frontier.clear();
  s.frontier.emplace_back(box_bound(0), 0);
  while (!s.frontier.empty()) {
    const auto [bound, id] = s.frontier.back();
    s.frontier.pop_back();
    // Bounds are checked at push time, but kth may have tightened since;
    // a stale entry whose box is now provably outside the answer set is
    // dropped here.
    if (bound > kth) continue;
    const KdNode& nd = nodes_[id];
    if (nd.left != 0) {
      double bl = box_bound(nd.left);
      double br = box_bound(nd.right);
      std::uint32_t nearc = nd.left;
      std::uint32_t farc = nd.right;
      if (br < bl) {
        std::swap(bl, br);
        nearc = nd.right;
        farc = nd.left;
      }
      // Far child below the near one on the stack: descending into the
      // nearer box first tightens kth before the far bound is re-tested
      // at pop time, so most far subtrees die as stale entries.
      if (br <= kth) s.frontier.emplace_back(br, farc);
      if (bl <= kth) s.frontier.emplace_back(bl, nearc);
      continue;
    }
    // Leaf: int16 screen against the leaf's block, exact distances for
    // survivors (walked via the vectorized survivor bitmask). The
    // threshold is refreshed whenever kth tightens; the per-survivor
    // recheck against the refreshed thr is what makes the entry-time
    // mask safe.
    const std::size_t cnt = nd.end - nd.begin;
    // Screen-block rows for this leaf: actual count rounded up to the
    // kernel granule (matches build_index's tight qtree_ blocks).
    const std::size_t rows16 = (cnt + 15) / 16 * 16;
    std::int32_t thr = std::numeric_limits<std::int32_t>::max();
    std::size_t start = 0;
    if (screen) {
      kernels::screen_squared_l2_i16_as(isa, qtree_.data() + nd.qoff,
                                        s.qx.data(), d, rows16, acc.data());
      if (kth == inf) {
        // First leaf: the heap is not yet full, so no finite screen
        // threshold exists and the mask would pass every row. Scan
        // linearly just until the k-th distance becomes finite (k rows),
        // then mask the rest against the real threshold.
        while (start < cnt && kth == inf) {
          const std::size_t pos = nd.begin + start;
          const double d2 =
              kernels::squared_l2({tree_points_.data() + pos * d, d}, x);
          s.cand.emplace_back(d2, perm_[pos]);  // kth == inf: collect all
          offer_d2(d2);
          ++start;
        }
        if (start >= cnt) continue;  // whole leaf consumed by the seed
      }
      thr = screen_threshold(kth, err, qscale_);
      kernels::mask_le_i32_as(isa, acc.data(), rows16, thr, mask.data());
    } else {
      mask.fill(~std::uint64_t{0});
    }
    for (std::size_t w = 0; w * 64 < rows16; ++w) {
      std::uint64_t m = mask[w];
      while (m != 0) {
        const std::size_t b =
            w * 64 + static_cast<std::size_t>(std::countr_zero(m));
        m &= m - 1;
        if (b < start) continue;  // rows the seed scan already consumed
        if (b >= cnt) break;  // zero padding rows at the leaf's end
        if (screen && acc[b] > thr) continue;  // provably > current k-th
        const std::size_t pos = nd.begin + b;
        const double d2 =
            kernels::squared_l2({tree_points_.data() + pos * d, d}, x);
        // Collect against the pre-offer kth: kth only shrinks, so this
        // keeps a superset of {d2 <= T} for the replay.
        if (d2 <= kth) s.cand.emplace_back(d2, perm_[pos]);
        if (offer_d2(d2) && screen)
          thr = screen_threshold(kth, err, qscale_);
      }
    }
  }

  // The walk is complete, so kth IS the true k-th distance T (the d2 heap
  // saw every point with d2 <= T). Entries beyond it are exactly the
  // fillers the replay is guaranteed to evict — drop them before paying
  // for the sort.
  s.cand.erase(std::remove_if(s.cand.begin(), s.cand.end(),
                              [&](const Entry& c) { return c.first > kth; }),
               s.cand.end());
  std::sort(s.cand.begin(), s.cand.end(),
            [](const Entry& a, const Entry& b) { return a.second < b.second; });
  s.heap.clear();
  for (const Entry& c : s.cand) offer(s.heap, k_, c.first, labels_[c.second]);
}

void Knn::score_into(std::span<const double> x, Scratch& s,
                     std::span<double> dist) const {
  bool finite = true;
  for (double v : x)
    if (!std::isfinite(v)) {
      finite = false;
      break;
    }
  if (finite && has_index())
    score_indexed(x, s);
  else
    score_scan(x, s);

  std::fill(dist.begin(), dist.end(), 0.0);
  const double share = 1.0 / static_cast<double>(s.heap.size());
  for (const Entry& e : s.heap) dist[e.second] += share;
}

std::vector<double> Knn::distribution(std::span<const double> features) const {
  HMD_REQUIRE(!points_.empty(), "Knn: predict before train");
  Scratch s;
  s.heap.reserve(k_);
  const std::vector<double> x = standardizer_.transform(features);
  std::vector<double> dist(num_classes_, 0.0);
  score_into(x, s, dist);
  return dist;
}

void Knn::distribution_batch(std::span<const double> flat,
                             std::size_t window_size,
                             std::span<double> out) const {
  HMD_REQUIRE(!points_.empty(), "Knn: predict before train");
  const std::size_t rows = require_batch(flat, window_size, out);
  HMD_REQUIRE(window_size == dim(),
              "Knn::distribution_batch: width mismatch");
  Scratch s;
  s.x.resize(window_size);
  s.heap.reserve(k_);
  // Each row is scored independently, so the batch can be walked in any
  // order without changing a single verdict. Process rows grouped by
  // their leading feature: nearby queries visit the same handful of tree
  // leaves, so each group's screen blocks and point rows stay hot in cache
  // instead of being evicted between every pair of unrelated queries. NaN
  // keys sort last: `<` alone is no strict weak order over NaN, and
  // std::sort needs one.
  s.order.resize(rows);
  std::iota(s.order.begin(), s.order.end(), 0u);
  if (rows > 1)
    std::sort(s.order.begin(), s.order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                const double ka = flat[std::size_t{a} * window_size];
                const double kb = flat[std::size_t{b} * window_size];
                return std::isnan(kb) ? !std::isnan(ka) : ka < kb;
              });
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t r = s.order[i];
    kernels::standardize_into(flat.subspan(r * window_size, window_size),
                              standardizer_.means(), standardizer_.stddevs(),
                              s.x);
    score_into(s.x, s, out.subspan(r * num_classes_, num_classes_));
  }
}

std::size_t Knn::predict(std::span<const double> features) const {
  const auto dist = distribution(features);
  return static_cast<std::size_t>(
      std::max_element(dist.begin(), dist.end()) - dist.begin());
}

}  // namespace hmd::ml
