#include "ml/j48.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "ml/decision_stump.hpp"  // entropy_of_counts
#include "util/error.hpp"

namespace hmd::ml {

namespace {

/// Inverse standard normal CDF (Acklam's rational approximation); enough
/// accuracy for the pruning confidence bound.
double normal_quantile(double p) {
  HMD_REQUIRE(p > 0.0 && p < 1.0, "normal_quantile: p outside (0,1)");
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  if (p < plow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - plow) {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

struct Split {
  std::size_t feature = 0;
  double threshold = 0.0;
  double gain_ratio = -1.0;
};

/// Order-preserving bit transform: key_of(a) < key_of(b) iff a < b for all
/// non-NaN doubles (with -0.0 ordered before +0.0 — numerically equal, so
/// every split statistic and threshold is unaffected by their relative
/// order). value_of inverts it bit-exactly.
std::uint64_t key_of(double v) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  return (bits & 0x8000000000000000ull) ? ~bits
                                        : bits | 0x8000000000000000ull;
}

double value_of(std::uint64_t key) {
  return std::bit_cast<double>(
      (key & 0x8000000000000000ull) ? key ^ 0x8000000000000000ull : ~key);
}

struct SortItem {
  std::uint64_t key;
  std::uint32_t idx;
};

/// Stable LSD radix sort by key, 16-bit digits. Stability makes ties come
/// out in ascending-index order, so the permutation is identical to
/// std::sort with the (value, index) comparator the presort used before.
/// Digits whose histogram is a single bucket are skipped — for clustered
/// feature values that usually drops a pass or two.
void radix_sort_items(std::vector<SortItem>& a, std::vector<SortItem>& b,
                      std::vector<std::uint32_t>& hist) {
  const std::size_t n = a.size();
  b.resize(n);
  hist.assign(4 * 65536, 0);
  for (const SortItem& it : a) {
    ++hist[it.key & 0xffff];
    ++hist[65536 + ((it.key >> 16) & 0xffff)];
    ++hist[2 * 65536 + ((it.key >> 32) & 0xffff)];
    ++hist[3 * 65536 + ((it.key >> 48) & 0xffff)];
  }
  for (int pass = 0; pass < 4; ++pass) {
    std::uint32_t* h = hist.data() + pass * 65536;
    const int shift = pass * 16;
    if (h[(a[0].key >> shift) & 0xffff] == n) continue;  // one bucket
    std::uint32_t sum = 0;
    for (std::size_t v = 0; v < 65536; ++v) {
      const std::uint32_t c = h[v];
      h[v] = sum;
      sum += c;
    }
    for (const SortItem& it : a) b[h[(it.key >> shift) & 0xffff]++] = it;
    a.swap(b);
  }
}

/// pessimistic_error_count with the z-value already resolved — pruning
/// computes z once per tree instead of re-running the rational
/// approximation at every node.
double pessimistic_error_count_z(std::size_t n, std::size_t errors,
                                 double z) {
  if (n == 0) return 0.0;
  const double nn = static_cast<double>(n);
  const double f = static_cast<double>(errors) / nn;
  const double z2 = z * z;
  const double upper =
      (f + z2 / (2.0 * nn) +
       z * std::sqrt(std::max(0.0, f / nn - f * f / nn + z2 / (4.0 * nn * nn)))) /
      (1.0 + z2 / nn);
  return upper * nn;
}

/// Grows the tree from presorted columns. Row ids live in `order` — one
/// value-sorted permutation per feature, partitioned in place as the tree
/// descends so a node owns the contiguous range [lo, hi) of every
/// per-feature array and never re-sorts. Split statistics are identical to
/// sorting a (value, class) vector per node per feature (tie order within
/// equal values cannot change the counts at distinct-value boundaries, and
/// all ties fall on one side of any threshold).
struct TreeBuilder {
  const J48::Params& params;
  std::size_t num_classes;
  std::size_t num_features;
  std::size_t n;
  std::span<const double> cols{};           ///< column-major, cols[f*n + r]
  std::vector<std::uint32_t> classes{};     ///< per row id
  std::vector<std::vector<std::uint32_t>> order{};  ///< per feature: row ids
  std::vector<std::vector<double>> vals{};  ///< per feature: value at pos
  std::vector<std::vector<std::uint16_t>> cls{};  ///< per feature: class at pos
  std::vector<std::uint8_t> goes_left{};    ///< per row id, current split
  std::vector<std::uint32_t> tmp_id{};      ///< partition scratch
  std::vector<double> tmp_val{};
  std::vector<std::uint16_t> tmp_cls{};
  // Memo of the entropy term p*log2(p) with p = c/side_total, keyed by the
  // integer count c. The stamp marks which boundary (epoch) the cached
  // value belongs to; side totals are shared by all features at one
  // boundary, so one feature's log2 work is reused by the other fifteen.
  // Term and stamp sit in one struct so a lookup costs one cache line, not
  // two. The cached doubles are exactly what entropy_of_counts computes.
  struct EntropyTerm {
    double term;
    std::uint32_t stamp;
  };
  std::vector<EntropyTerm> memo_l{}, memo_r{};
  std::uint32_t epoch = 0;
  std::vector<std::uint32_t> left_counts{};  ///< flat [feature][class]

  const double* column(std::size_t f) const { return cols.data() + f * n; }

  /// Entropy of `counts` (k entries summing to an integer whose double
  /// value is `total`), with per-term memoization. Term values and the
  /// accumulation order match entropy_of_counts exactly.
  double side_entropy(const std::uint32_t* counts, double total,
                      std::vector<EntropyTerm>& memo) const {
    double h = 0.0;
    for (std::size_t k = 0; k < num_classes; ++k) {
      const std::uint32_t c = counts[k];
      if (c == 0) continue;
      EntropyTerm& e = memo[c];
      if (e.stamp != epoch) {
        const double p = static_cast<double>(c) / total;
        e.term = p * std::log2(p);
        e.stamp = epoch;
      }
      h -= e.term;
    }
    return h;
  }

  std::unique_ptr<J48::Node> build(std::size_t lo, std::size_t hi,
                                   std::size_t depth) {
    auto node = std::make_unique<J48::Node>();
    const std::size_t n_node = hi - lo;
    node->n = n_node;

    std::vector<std::size_t> counts(num_classes, 0);
    for (std::size_t i = lo; i < hi; ++i) ++counts[cls[0][i]];
    node->cls = static_cast<std::size_t>(
        std::max_element(counts.begin(), counts.end()) - counts.begin());
    node->errors = n_node - counts[node->cls];

    const bool pure = counts[node->cls] == n_node;
    if (pure || n_node < 2 * params.min_leaf || depth >= params.max_depth)
      return node;

    const double base_entropy = entropy_of_counts(counts);
    const double n_total = static_cast<double>(n_node);

    // Boundary-major scan: advance every feature's left counts one row per
    // step, then evaluate each feature's boundary at this row count. The
    // candidate set and all per-candidate doubles are identical to the
    // feature-major scan; only the visit order differs, and ties on the
    // computed gain ratio are resolved below by (feature, boundary)
    // lexicographic order — the same winner the feature-major first-wins
    // rule picks.
    Split best;
    std::size_t best_i = 0;
    std::fill(left_counts.begin(), left_counts.end(), 0);
    std::vector<std::uint32_t> right(num_classes);
    for (std::size_t i = lo; i + 1 < hi; ++i) {
      for (std::size_t f = 0; f < num_features; ++f)
        ++left_counts[f * num_classes + cls[f][i]];
      const std::size_t nl = i + 1 - lo;
      const std::size_t nr = n_node - nl;
      if (nl < params.min_leaf || nr < params.min_leaf) continue;
      const double pl = static_cast<double>(nl) / n_total;
      const double pr = static_cast<double>(nr) / n_total;
      const double nl_d = static_cast<double>(nl);
      const double nr_d = static_cast<double>(nr);
      double split_info = 0.0;
      bool split_info_ready = false;
      ++epoch;
      for (std::size_t f = 0; f < num_features; ++f) {
        if (vals[f][i] == vals[f][i + 1]) continue;
        const std::uint32_t* lc = left_counts.data() + f * num_classes;
        for (std::size_t k = 0; k < num_classes; ++k)
          right[k] = static_cast<std::uint32_t>(counts[k]) - lc[k];
        const double hl = side_entropy(lc, nl_d, memo_l);
        const double hr = side_entropy(right.data(), nr_d, memo_r);
        const double gain = base_entropy - pl * hl - pr * hr;
        if (!(gain > 1e-9)) continue;
        if (!split_info_ready) {
          // Depends only on (nl, nr): one log2 pair per boundary instead
          // of one per (feature, boundary).
          split_info = -pl * std::log2(pl) - pr * std::log2(pr);
          split_info_ready = true;
        }
        if (split_info <= 1e-9) continue;
        const double ratio = gain / split_info;
        if (ratio > best.gain_ratio ||
            (ratio == best.gain_ratio &&
             (f < best.feature || (f == best.feature && i < best_i)))) {
          best = {.feature = f,
                  .threshold = 0.5 * (vals[f][i] + vals[f][i + 1]),
                  .gain_ratio = ratio};
          best_i = i;
        }
      }
    }

    if (best.gain_ratio <= 0.0) return node;  // no useful split

    // Stable-partition every per-feature range by split side: each side
    // stays value-sorted, so children never re-sort.
    std::size_t n_left = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint32_t r = order[best.feature][i];
      const bool l = vals[best.feature][i] <= best.threshold;
      goes_left[r] = l ? 1 : 0;
      n_left += l ? 1 : 0;
    }
    HMD_ASSERT(n_left > 0 && n_left < n_node);
    const auto span_lo = static_cast<std::ptrdiff_t>(lo);
    const auto span_hi = static_cast<std::ptrdiff_t>(hi);
    for (std::size_t f = 0; f < num_features; ++f) {
      std::vector<std::uint32_t>& ord = order[f];
      std::vector<double>& val = vals[f];
      std::vector<std::uint16_t>& cl = cls[f];
      tmp_id.assign(ord.begin() + span_lo, ord.begin() + span_hi);
      tmp_val.assign(val.begin() + span_lo, val.begin() + span_hi);
      tmp_cls.assign(cl.begin() + span_lo, cl.begin() + span_hi);
      std::size_t wl = lo;
      std::size_t wr = lo + n_left;
      for (std::size_t j = 0; j < n_node; ++j) {
        const std::uint32_t r = tmp_id[j];
        const std::size_t dst = (goes_left[r] != 0) ? wl++ : wr++;
        ord[dst] = r;
        val[dst] = tmp_val[j];
        cl[dst] = tmp_cls[j];
      }
    }

    node->feature = best.feature;
    node->threshold = best.threshold;
    node->left = build(lo, lo + n_left, depth + 1);
    node->right = build(lo + n_left, hi, depth + 1);
    return node;
  }
};

double prune_subtree(J48::Node& node, double z) {
  if (node.is_leaf()) return pessimistic_error_count_z(node.n, node.errors, z);

  const double subtree_est =
      prune_subtree(*node.left, z) + prune_subtree(*node.right, z);
  const double leaf_est = pessimistic_error_count_z(node.n, node.errors, z);
  if (leaf_est <= subtree_est + 0.1) {
    node.left.reset();
    node.right.reset();
    return leaf_est;
  }
  return subtree_est;
}

}  // namespace

double pessimistic_error_count(std::size_t n, std::size_t errors, double cf) {
  if (n == 0) return 0.0;
  return pessimistic_error_count_z(n, errors, -normal_quantile(cf));
}

void J48::train(const DatasetView& data) {
  require_trainable(data);
  num_classes_ = data.num_classes();
  HMD_REQUIRE(num_classes_ <= 65535, "J48: too many classes");
  const std::size_t n = data.num_instances();

  TreeBuilder builder{.params = params_,
                      .num_classes = num_classes_,
                      .num_features = data.num_features(),
                      .n = n};
  std::vector<double> col_scratch;
  builder.cols = data.feature_columns(col_scratch);
  builder.classes.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    builder.classes[i] = static_cast<std::uint32_t>(data.class_of(i));
  builder.goes_left.resize(n);
  builder.tmp_id.reserve(n);
  builder.tmp_val.reserve(n);
  builder.tmp_cls.reserve(n);
  builder.memo_l.assign(n + 1, {0.0, 0});
  builder.memo_r.assign(n + 1, {0.0, 0});
  builder.left_counts.resize(builder.num_features * num_classes_);

  // Presort every column once at the root; build() keeps each child's
  // ranges sorted by stable partitioning. Values and classes ride along in
  // sorted position order so the boundary scan reads contiguous streams
  // instead of gathering through row ids.
  builder.order.resize(builder.num_features);
  builder.vals.resize(builder.num_features);
  builder.cls.resize(builder.num_features);
  std::vector<SortItem> items(n);
  std::vector<SortItem> scratch;
  std::vector<std::uint32_t> hist;
  for (std::size_t f = 0; f < builder.num_features; ++f) {
    const double* col = builder.column(f);
    for (std::size_t i = 0; i < n; ++i)
      items[i] = {key_of(col[i]), static_cast<std::uint32_t>(i)};
    radix_sort_items(items, scratch, hist);
    std::vector<std::uint32_t>& ord = builder.order[f];
    ord.resize(n);
    builder.vals[f].resize(n);
    builder.cls[f].resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      ord[i] = items[i].idx;
      builder.vals[f][i] = value_of(items[i].key);
      builder.cls[f][i] =
          static_cast<std::uint16_t>(builder.classes[items[i].idx]);
    }
  }

  root_ = builder.build(0, n, 0);
  if (params_.prune) {
    // z depends only on the confidence parameter: resolve it once per
    // train instead of per pessimistic_error_count call.
    const double z = -normal_quantile(params_.confidence);
    prune_subtree(*root_, z);
  }
}

std::size_t J48::predict(std::span<const double> features) const {
  HMD_REQUIRE(root_ != nullptr, "J48: predict before train");
  const Node* node = root_.get();
  while (!node->is_leaf()) {
    HMD_REQUIRE(node->feature < features.size(),
                "J48: feature vector too short");
    node = features[node->feature] <= node->threshold ? node->left.get()
                                                      : node->right.get();
  }
  return node->cls;
}

const J48::Node& J48::root() const {
  HMD_REQUIRE(root_ != nullptr, "J48: model not trained");
  return *root_;
}

namespace {
std::size_t count_leaves(const J48::Node& n) {
  if (n.is_leaf()) return 1;
  return count_leaves(*n.left) + count_leaves(*n.right);
}
std::size_t count_nodes(const J48::Node& n) {
  if (n.is_leaf()) return 1;
  return 1 + count_nodes(*n.left) + count_nodes(*n.right);
}
std::size_t tree_depth(const J48::Node& n) {
  if (n.is_leaf()) return 0;
  return 1 + std::max(tree_depth(*n.left), tree_depth(*n.right));
}
}  // namespace

std::size_t J48::num_leaves() const { return count_leaves(root()); }
std::size_t J48::num_nodes() const { return count_nodes(root()); }
std::size_t J48::depth() const { return tree_depth(root()); }

}  // namespace hmd::ml
