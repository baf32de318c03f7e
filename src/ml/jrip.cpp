#include "ml/jrip.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace hmd::ml {

namespace {

/// Train-local columnar snapshot of the training view: rule growing
/// evaluates thousands of candidate conditions per feature, so conditions
/// read contiguous column slices instead of strided row storage.
struct ColumnData {
  std::span<const double> cols;  ///< column-major, cols[f*n + r]
  std::size_t n = 0;
  std::vector<std::uint32_t> classes;

  const double* col(std::size_t f) const { return cols.data() + f * n; }

  bool matches(const JRip::Rule& rule, std::size_t r) const {
    for (const JRip::Condition& c : rule.conditions) {
      const double v = col(c.feature)[r];
      if (!(c.greater ? v > c.threshold : v <= c.threshold)) return false;
    }
    return true;
  }
};

/// Coverage of a rule over a row-index subset.
struct Coverage {
  std::size_t pos = 0;
  std::size_t neg = 0;
};

Coverage coverage_of(const JRip::Rule& rule, const ColumnData& data,
                     const std::vector<std::size_t>& rows, std::size_t cls) {
  Coverage cov;
  for (std::size_t r : rows) {
    if (!data.matches(rule, r)) continue;
    if (data.classes[r] == cls)
      ++cov.pos;
    else
      ++cov.neg;
  }
  return cov;
}

double log2_ratio(double p, double n) {
  return std::log2((p + 1.0) / (p + n + 2.0));  // Laplace-smoothed
}

/// Candidate thresholds for one feature: quantiles over the rows the rule
/// currently covers (subsampled for cost), sorted and unique. NaN cells are
/// dropped: they would break the sort's ordering, and a NaN threshold
/// covers no row on either side.
std::vector<double> candidate_thresholds(const ColumnData& data,
                                         const std::vector<std::size_t>& rows,
                                         std::size_t feature,
                                         std::size_t how_many, Rng& rng) {
  std::vector<double> values;
  const double* col = data.col(feature);
  const std::size_t max_sample = 512;
  if (rows.size() <= max_sample) {
    values.reserve(rows.size());
    for (std::size_t r : rows)
      if (!std::isnan(col[r])) values.push_back(col[r]);
  } else {
    values.reserve(max_sample);
    for (std::size_t i = 0; i < max_sample; ++i) {
      const std::size_t r = rows[rng.uniform_index(rows.size())];
      if (!std::isnan(col[r])) values.push_back(col[r]);
    }
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  if (values.size() <= how_many) return values;
  std::vector<double> out;
  out.reserve(how_many);
  for (std::size_t i = 1; i <= how_many; ++i) {
    const std::size_t idx =
        i * (values.size() - 1) / (how_many + 1);
    out.push_back(values[idx]);
  }
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Bins the covered rows of one feature against its sorted thresholds t:
/// a row with value v lands in bin b = #{j : t[j] < v}, so v <= t[j]
/// exactly when b <= j. bins[2b] counts the bin's positives and
/// bins[2b + 1] its negatives; NaN rows fall on neither side of any
/// threshold and are left out. Returns the non-NaN total.
Coverage bin_rows(const double* col, const std::vector<std::uint32_t>& classes,
                  const std::vector<std::size_t>& rows, std::size_t cls,
                  std::span<const double> t, std::vector<std::size_t>& bins) {
  bins.assign(2 * (t.size() + 1), 0);
  for (std::size_t r : rows) {
    const double v = col[r];
    if (std::isnan(v)) continue;
    std::size_t b = 0;
    for (double tj : t) b += static_cast<std::size_t>(tj < v);
    ++bins[2 * b + static_cast<std::size_t>(classes[r] != cls)];
  }
  Coverage total;
  for (std::size_t b = 0; b <= t.size(); ++b) {
    total.pos += bins[2 * b];
    total.neg += bins[2 * b + 1];
  }
  return total;
}

}  // namespace

void JRip::train(const DatasetView& view) {
  require_trainable(view);
  num_classes_ = view.num_classes();
  rules_.clear();

  Rng rng(params_.seed);

  const std::size_t n = view.num_instances();
  const std::size_t num_features = view.num_features();
  ColumnData data;
  std::vector<double> col_scratch;
  data.cols = view.feature_columns(col_scratch);
  data.n = n;
  data.classes.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    data.classes[i] = static_cast<std::uint32_t>(view.class_of(i));

  // Classes in ascending frequency; the most frequent becomes the default.
  const auto counts = view.class_counts();
  std::vector<std::size_t> order(num_classes_);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return counts[a] < counts[b];
                   });
  default_class_ = order.back();

  std::vector<std::size_t> remaining(n);
  std::iota(remaining.begin(), remaining.end(), 0);
  std::vector<std::size_t> bins;  // bin_rows scratch

  for (std::size_t ci = 0; ci + 1 < order.size(); ++ci) {
    const std::size_t cls = order[ci];
    std::size_t rules_for_class = 0;

    while (rules_for_class < params_.max_rules_per_class) {
      // Any positives left to cover?
      std::size_t pos_left = 0;
      for (std::size_t r : remaining)
        if (data.classes[r] == cls) ++pos_left;
      if (pos_left < 2) break;

      // Stratified-ish grow/prune split of the remaining data.
      std::vector<std::size_t> shuffled = remaining;
      rng.shuffle(shuffled);
      const std::size_t n_prune = static_cast<std::size_t>(
          params_.prune_fraction * static_cast<double>(shuffled.size()));
      std::vector<std::size_t> prune_rows(shuffled.begin(),
                                          shuffled.begin() +
                                              static_cast<std::ptrdiff_t>(n_prune));
      std::vector<std::size_t> grow_rows(shuffled.begin() +
                                             static_cast<std::ptrdiff_t>(n_prune),
                                         shuffled.end());

      // ---- Grow ----
      Rule rule;
      rule.cls = cls;
      std::vector<std::size_t> covered = grow_rows;
      Coverage cov = coverage_of(rule, data, covered, cls);
      while (cov.neg > 0 &&
             rule.conditions.size() < params_.max_conditions_per_rule) {
        Condition best_cond;
        double best_gain = 0.0;
        Coverage best_cov;
        const double base = log2_ratio(static_cast<double>(cov.pos),
                                       static_cast<double>(cov.neg));
        auto consider = [&](const Condition& cond, const Coverage& c) {
          if (c.pos == 0) return;
          const double gain =
              static_cast<double>(c.pos) *
              (log2_ratio(static_cast<double>(c.pos),
                          static_cast<double>(c.neg)) -
               base);
          if (gain > best_gain) {
            best_gain = gain;
            best_cond = cond;
            best_cov = c;
          }
        };
        // One binned sweep per feature scores all of its candidates: the
        // prefix sums of the bins give the coverage of `v <= t` for each
        // threshold ascending, and `v > t` is the non-NaN rest. Candidates
        // are visited in (feature, threshold, <= before >) order.
        for (std::size_t f = 0; f < num_features; ++f) {
          const auto thresholds = candidate_thresholds(
              data, covered, f, params_.thresholds_per_feature, rng);
          const Coverage total = bin_rows(data.col(f), data.classes, covered,
                                          cls, thresholds, bins);
          Coverage le;
          for (std::size_t j = 0; j < thresholds.size(); ++j) {
            le.pos += bins[2 * j];
            le.neg += bins[2 * j + 1];
            const double t = thresholds[j];
            consider({.feature = f, .greater = false, .threshold = t}, le);
            consider({.feature = f, .greater = true, .threshold = t},
                     {.pos = total.pos - le.pos, .neg = total.neg - le.neg});
          }
        }
        if (best_gain <= 1e-9) break;
        rule.conditions.push_back(best_cond);
        const double* col = data.col(best_cond.feature);
        std::vector<std::size_t> still_covered;
        still_covered.reserve(covered.size());
        for (std::size_t r : covered) {
          const double v = col[r];
          if (best_cond.greater ? v > best_cond.threshold
                                : v <= best_cond.threshold)
            still_covered.push_back(r);
        }
        covered = std::move(still_covered);
        cov = best_cov;
      }
      if (rule.conditions.empty()) break;

      // ---- Prune: drop trailing conditions maximizing (p-n)/(p+n). ----
      auto rule_value = [&](const Rule& r) {
        const Coverage c = coverage_of(r, data, prune_rows, cls);
        if (c.pos + c.neg == 0) return -1.0;
        return (static_cast<double>(c.pos) - static_cast<double>(c.neg)) /
               static_cast<double>(c.pos + c.neg);
      };
      Rule pruned = rule;
      double best_value = rule_value(pruned);
      Rule candidate = rule;
      while (candidate.conditions.size() > 1) {
        candidate.conditions.pop_back();
        const double v = rule_value(candidate);
        if (v >= best_value) {
          best_value = v;
          pruned = candidate;
        }
      }

      // ---- Accept? ----
      const Coverage prune_cov = coverage_of(pruned, data, prune_rows, cls);
      const std::size_t covered_total = prune_cov.pos + prune_cov.neg;
      const double precision =
          covered_total == 0
              ? 0.0
              : static_cast<double>(prune_cov.pos) /
                    static_cast<double>(covered_total);
      // Accept a rule the prune set never sees only if it grew clean.
      const bool acceptable =
          covered_total == 0 ? cov.neg == 0 : precision >= params_.min_precision;
      if (!acceptable) break;

      rules_.push_back(pruned);
      ++rules_for_class;

      // Remove everything the rule covers from the remaining data.
      std::vector<std::size_t> still_remaining;
      still_remaining.reserve(remaining.size());
      for (std::size_t r : remaining)
        if (!data.matches(pruned, r))
          still_remaining.push_back(r);
      if (still_remaining.size() == remaining.size()) break;  // no progress
      remaining = std::move(still_remaining);
    }
  }

  // Default class: majority among uncovered instances (falls back to the
  // globally most frequent class when everything is covered).
  if (!remaining.empty()) {
    std::vector<std::size_t> rem_counts(num_classes_, 0);
    for (std::size_t r : remaining) ++rem_counts[data.classes[r]];
    default_class_ = static_cast<std::size_t>(
        std::max_element(rem_counts.begin(), rem_counts.end()) -
        rem_counts.begin());
  }
  trained_ = true;
}

std::size_t JRip::predict(std::span<const double> features) const {
  HMD_REQUIRE(trained_, "JRip: predict before train");
  for (const Rule& rule : rules_)
    if (rule.matches(features)) return rule.cls;
  return default_class_;
}

std::size_t JRip::total_conditions() const {
  std::size_t n = 0;
  for (const Rule& r : rules_) n += r.conditions.size();
  return n;
}

}  // namespace hmd::ml
