// Reference JRip trainer for the exactness checks: the grow loop that scores
// each candidate condition with its own scan of the covered rows (2T scans
// per feature per grow step). JRip::train scores every candidate of a
// feature from one binned sweep and must choose exactly the rules this loop
// chooses: same RNG draws, same candidate order, same integer coverages.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/jrip.hpp"
#include "util/rng.hpp"

namespace hmd::ml::testref {

struct JRipReferenceModel {
  std::vector<JRip::Rule> rules;
  std::size_t default_class = 0;
};

namespace jrip_detail {

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

struct Coverage {
  std::size_t pos = 0;
  std::size_t neg = 0;
};

inline Coverage coverage_of(const JRip::Rule& rule, const ColumnData& data,
                            const std::vector<std::size_t>& rows,
                            std::size_t cls) {
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

inline double log2_ratio(double p, double n) {
  return std::log2((p + 1.0) / (p + n + 2.0));  // Laplace-smoothed
}

inline std::vector<double> candidate_thresholds(
    const ColumnData& data, const std::vector<std::size_t>& rows,
    std::size_t feature, std::size_t how_many, Rng& rng) {
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
    const std::size_t idx = i * (values.size() - 1) / (how_many + 1);
    out.push_back(values[idx]);
  }
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace jrip_detail

inline JRipReferenceModel train_jrip_reference(const DatasetView& view,
                                               const JRip::Params& params) {
  using namespace jrip_detail;
  using Condition = JRip::Condition;
  using Rule = JRip::Rule;
  const std::size_t num_classes = view.num_classes();
  JRipReferenceModel model;

  Rng rng(params.seed);

  const std::size_t n = view.num_instances();
  const std::size_t num_features = view.num_features();
  ColumnData data;
  std::vector<double> col_scratch;
  data.cols = view.feature_columns(col_scratch);
  data.n = n;
  data.classes.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    data.classes[i] = static_cast<std::uint32_t>(view.class_of(i));

  const auto counts = view.class_counts();
  std::vector<std::size_t> order(num_classes);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return counts[a] < counts[b];
                   });
  model.default_class = order.back();

  std::vector<std::size_t> remaining(n);
  std::iota(remaining.begin(), remaining.end(), 0);

  for (std::size_t ci = 0; ci + 1 < order.size(); ++ci) {
    const std::size_t cls = order[ci];
    std::size_t rules_for_class = 0;

    while (rules_for_class < params.max_rules_per_class) {
      std::size_t pos_left = 0;
      for (std::size_t r : remaining)
        if (data.classes[r] == cls) ++pos_left;
      if (pos_left < 2) break;

      std::vector<std::size_t> shuffled = remaining;
      rng.shuffle(shuffled);
      const std::size_t n_prune = static_cast<std::size_t>(
          params.prune_fraction * static_cast<double>(shuffled.size()));
      std::vector<std::size_t> prune_rows(
          shuffled.begin(),
          shuffled.begin() + static_cast<std::ptrdiff_t>(n_prune));
      std::vector<std::size_t> grow_rows(
          shuffled.begin() + static_cast<std::ptrdiff_t>(n_prune),
          shuffled.end());

      // ---- Grow: one scan of the covered rows per candidate ----
      Rule rule;
      rule.cls = cls;
      std::vector<std::size_t> covered = grow_rows;
      Coverage cov = coverage_of(rule, data, covered, cls);
      while (cov.neg > 0 &&
             rule.conditions.size() < params.max_conditions_per_rule) {
        Condition best_cond;
        double best_gain = 0.0;
        Coverage best_cov;
        const double base = log2_ratio(static_cast<double>(cov.pos),
                                       static_cast<double>(cov.neg));
        for (std::size_t f = 0; f < num_features; ++f) {
          const auto thresholds = candidate_thresholds(
              data, covered, f, params.thresholds_per_feature, rng);
          const double* col = data.col(f);
          for (double t : thresholds) {
            for (bool greater : {false, true}) {
              const Condition cond{.feature = f, .greater = greater,
                                   .threshold = t};
              Coverage c;
              for (std::size_t r : covered) {
                const double v = col[r];
                if (!(greater ? v > t : v <= t)) continue;
                if (data.classes[r] == cls)
                  ++c.pos;
                else
                  ++c.neg;
              }
              if (c.pos == 0) continue;
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
            }
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

      // ---- Prune ----
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
      const bool acceptable =
          covered_total == 0 ? cov.neg == 0 : precision >= params.min_precision;
      if (!acceptable) break;

      model.rules.push_back(pruned);
      ++rules_for_class;

      std::vector<std::size_t> still_remaining;
      still_remaining.reserve(remaining.size());
      for (std::size_t r : remaining)
        if (!data.matches(pruned, r)) still_remaining.push_back(r);
      if (still_remaining.size() == remaining.size()) break;
      remaining = std::move(still_remaining);
    }
  }

  if (!remaining.empty()) {
    std::vector<std::size_t> rem_counts(num_classes, 0);
    for (std::size_t r : remaining) ++rem_counts[data.classes[r]];
    model.default_class = static_cast<std::size_t>(
        std::max_element(rem_counts.begin(), rem_counts.end()) -
        rem_counts.begin());
  }
  return model;
}

}  // namespace hmd::ml::testref
