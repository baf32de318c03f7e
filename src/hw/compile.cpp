#include "hw/compile.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "hw/backend.hpp"
#include "ml/decision_stump.hpp"
#include "ml/j48.hpp"
#include "ml/jrip.hpp"
#include "ml/logistic.hpp"
#include "ml/mlp.hpp"
#include "ml/naive_bayes.hpp"
#include "ml/one_r.hpp"
#include "ml/svm.hpp"
#include "util/error.hpp"

namespace hmd::hw {

namespace {

/// Shared lowering state: the netlist under construction, the input grid
/// every threshold/weight folds against, and the LUT-ROM size.
struct LowerCtx {
  Netlist nl;
  const std::vector<double>& absmax;
  const std::vector<double>& scales;
  std::size_t lut_size;

  NetId in(std::size_t f) { return nl.input(static_cast<std::uint32_t>(f)); }
  /// Threshold literal on feature f's grid (floor semantics — see
  /// netlist.hpp for why this makes integer compares exact).
  NetId th(std::size_t f, double t) {
    HMD_REQUIRE(f < scales.size(),
                "compile: model references feature beyond the port list");
    return nl.constant(NetType::kQ16, threshold_raw(t, scales[f]));
  }
  NetId cls(std::size_t c) { return nl.class_constant(c); }
};

/// Balanced adder tree over `terms` — exact regardless of shape (integer
/// addition is associative), minimal critical path.
NetId sum_tree(Netlist& nl, std::vector<NetId> terms) {
  HMD_REQUIRE(!terms.empty(), "sum_tree: no terms");
  while (terms.size() > 1) {
    std::vector<NetId> next;
    next.reserve(terms.size() / 2 + 1);
    for (std::size_t i = 0; i + 1 < terms.size(); i += 2)
      next.push_back(nl.add(terms[i], terms[i + 1]));
    if (terms.size() % 2 == 1) next.push_back(terms.back());
    terms = std::move(next);
  }
  return terms.front();
}

/// Extended-precision weight shift: the largest e (capped at 46) keeping
/// round(maxw * 2^e) within 2^30, so a product against a <= 2^30 input raw
/// stays under 2^61 — representable in the 64-bit RTL datapath.
std::uint32_t weight_shift(double max_abs_weight) {
  if (max_abs_weight <= 0.0) return 30;
  const double e = std::floor(30.0 - std::log2(max_abs_weight));
  HMD_REQUIRE(e >= 0.0, "weight magnitude overflows the Q16.16 datapath");
  return static_cast<std::uint32_t>(std::min(e, 46.0));
}

std::int64_t weight_raw(double w, std::uint32_t shift) {
  const double scaled = std::ldexp(w, static_cast<int>(shift));
  HMD_REQUIRE(std::isfinite(scaled) && std::abs(scaled) < 9.2e18,
              "weight overflows the fixed-point datapath");
  return static_cast<std::int64_t>(std::llround(scaled));
}

/// sum_i in[i] * w[i] + bias as an adder tree (weights on the 2^-shift
/// grid, bias on the Q16.16 score grid); reads the first in.size() of `w`.
NetId affine_sum(Netlist& nl, const std::vector<NetId>& in,
                 const std::vector<double>& w, double bias,
                 std::uint32_t shift) {
  std::vector<NetId> terms;
  terms.reserve(in.size() + 1);
  for (std::size_t i = 0; i < in.size(); ++i)
    terms.push_back(nl.mul(
        in[i], nl.constant(NetType::kWide, weight_raw(w[i], shift)), shift));
  terms.push_back(nl.constant(NetType::kWide, q16_raw(bias)));
  return sum_tree(nl, std::move(terms));
}

// -- scheme lowerings -------------------------------------------------------

void lower_net_one_r(LowerCtx& ctx, const ml::OneR& model) {
  const auto& intervals = model.intervals();
  HMD_REQUIRE(!intervals.empty(), "compile: OneR model is not trained");
  const std::size_t f = model.chosen_feature();
  const NetId x = ctx.in(f);
  // Priority chain, first matching interval wins; the last interval is the
  // default arm (its bound is +inf and never compared).
  NetId decision = ctx.cls(intervals.back().cls);
  for (std::size_t i = intervals.size() - 1; i-- > 0;) {
    const NetId hit = ctx.nl.cmp_le(x, ctx.th(f, intervals[i].upper_bound));
    decision = ctx.nl.mux(hit, ctx.cls(intervals[i].cls), decision);
  }
  ctx.nl.set_output(decision);
}

void lower_net_stump(LowerCtx& ctx, const ml::DecisionStump& model) {
  const std::size_t f = model.split_feature();
  const NetId hit = ctx.nl.cmp_le(ctx.in(f), ctx.th(f, model.split_threshold()));
  ctx.nl.set_output(ctx.nl.mux(hit, ctx.cls(model.left_class()),
                               ctx.cls(model.right_class())));
}

NetId lower_j48_node(LowerCtx& ctx, const ml::J48::Node& node) {
  if (node.is_leaf()) return ctx.cls(node.cls);
  const NetId hit =
      ctx.nl.cmp_le(ctx.in(node.feature), ctx.th(node.feature, node.threshold));
  return ctx.nl.mux(hit, lower_j48_node(ctx, *node.left),
                    lower_j48_node(ctx, *node.right));
}

void lower_net_j48(LowerCtx& ctx, const ml::J48& model) {
  ctx.nl.set_output(lower_j48_node(ctx, model.root()));
}

void lower_net_jrip(LowerCtx& ctx, const ml::JRip& model) {
  const auto& rules = model.rules();
  std::vector<NetId> fires;
  fires.reserve(rules.size());
  for (const auto& rule : rules) {
    std::vector<NetId> conds;
    conds.reserve(rule.conditions.size());
    for (const auto& c : rule.conditions) {
      const NetId x = ctx.in(c.feature);
      const NetId t = ctx.th(c.feature, c.threshold);
      conds.push_back(c.greater ? ctx.nl.cmp_gt(x, t) : ctx.nl.cmp_le(x, t));
    }
    if (conds.empty())
      conds.push_back(ctx.nl.constant(NetType::kBit, 1));
    fires.push_back(ctx.nl.and_reduce(std::move(conds)));
  }
  // Ordered list: first firing rule wins, else the default class.
  NetId decision = ctx.cls(model.default_class());
  for (std::size_t r = rules.size(); r-- > 0;)
    decision = ctx.nl.mux(fires[r], ctx.cls(rules[r].cls), decision);
  ctx.nl.set_output(decision);
}

/// One affine sum per weight row (d+1 wide, bias last, standardized feature
/// space) over the raw input grid, mapped through `activate`; the
/// standardizer and the per-feature input scales fold into the constants.
template <class Activate>
std::vector<NetId> folded_affine(LowerCtx& ctx,
                                 const std::vector<std::vector<double>>& rows,
                                 const ml::Standardizer& standardizer,
                                 Activate activate) {
  const std::size_t k = rows.size();
  const std::size_t d = standardizer.num_features();
  HMD_REQUIRE(d <= ctx.nl.num_features(),
              "compile: model references a feature beyond the port list");

  // Fold: w'_f = w_f/sigma_f (input units), bias -= w_f*mu_f/sigma_f, then
  // divide by the input pre-scale so products against port raws land back
  // on the Q16.16 score grid.
  std::vector<std::vector<double>> folded(k, std::vector<double>(d, 0.0));
  std::vector<double> bias(k, 0.0);
  double max_w = 0.0;
  for (std::size_t c = 0; c < k; ++c) {
    bias[c] = rows[c][d];
    for (std::size_t f = 0; f < d; ++f) {
      const double sd = standardizer.stddevs()[f];
      if (sd > 0.0) {
        folded[c][f] = rows[c][f] / sd / ctx.scales[f];
        bias[c] -= rows[c][f] * standardizer.means()[f] / sd;
      }
      max_w = std::max(max_w, std::abs(folded[c][f]));
    }
  }
  const std::uint32_t shift = weight_shift(max_w);

  std::vector<NetId> inputs(d);
  for (std::size_t f = 0; f < d; ++f) inputs[f] = ctx.in(f);
  std::vector<NetId> sums(k);
  for (std::size_t c = 0; c < k; ++c)
    sums[c] = activate(affine_sum(ctx.nl, inputs, folded[c], bias[c], shift));
  return sums;
}

/// Shared by MLR and SVM: per class a folded affine score, then an argmax
/// (softmax/sigmoid links are monotone, so the class decision needs
/// neither).
template <class Linear>
void lower_net_linear(LowerCtx& ctx, const Linear& model) {
  HMD_REQUIRE(model.weights().size() >= 2,
              "compile: linear model is not trained");
  ctx.nl.set_output(ctx.nl.argmax(folded_affine(
      ctx, model.weights(), model.standardizer(), [](NetId s) { return s; })));
}

/// Gaussian log-density term for NaiveBayes ROM entries, clamped so the
/// Q16.16 raw (and any sum of them) stays far from the 64-bit edge.
std::int64_t log_density_raw(double x, double mean, double var) {
  const double lp = -0.5 * std::log(2.0 * std::numbers::pi * var) -
                    (x - mean) * (x - mean) / (2.0 * var);
  return q16_raw(std::clamp(lp, -1e9, 1e9));
}

/// A saturating ROM of `size` entries evenly covering the raw input range
/// [-half_span, +half_span); entry i holds value_at(raw center of bucket i).
template <class ValueAt>
LutRom uniform_rom(LutRom::Kind kind, std::int64_t half_span,
                   std::size_t size, ValueAt value_at) {
  LutRom rom;
  rom.kind = kind;
  rom.lo_raw = -half_span;
  std::uint32_t shift = 0;
  while ((std::int64_t{1} << shift) * static_cast<std::int64_t>(size) <
         2 * half_span)
    ++shift;
  rom.step_shift = shift;
  rom.values.resize(size);
  for (std::size_t i = 0; i < size; ++i)
    rom.values[i] = value_at(rom.lo_raw +
                             (static_cast<std::int64_t>(i) << shift) +
                             (std::int64_t{1} << shift) / 2);
  return rom;
}

/// Gaussian log-density ROM over feature f's raw input range [-R, +R].
LutRom gaussian_lut(const LowerCtx& ctx, std::size_t f, double mean,
                    double var) {
  const double scale = ctx.scales[f];
  return uniform_rom(
      LutRom::Kind::kGaussian,
      q16_raw(std::max(ctx.absmax[f], 1e-12) * scale), ctx.lut_size,
      [&](std::int64_t center) {
        return log_density_raw(q16_value(center) / scale, mean, var);
      });
}

void lower_net_naive_bayes(LowerCtx& ctx, const ml::NaiveBayes& model) {
  const std::size_t k = model.num_classes();
  HMD_REQUIRE(k >= 2, "compile: NaiveBayes model is not trained");
  const std::size_t d = model.means().front().size();
  HMD_REQUIRE(d <= ctx.nl.num_features(),
              "compile: model references a feature beyond the port list");

  std::vector<NetId> inputs(d);
  for (std::size_t f = 0; f < d; ++f) inputs[f] = ctx.in(f);
  std::vector<NetId> scores(k);
  for (std::size_t c = 0; c < k; ++c) {
    std::vector<NetId> terms;
    terms.reserve(d + 1);
    for (std::size_t f = 0; f < d; ++f)
      terms.push_back(ctx.nl.lut_rom(
          ctx.nl.add_lut(gaussian_lut(ctx, f, model.means()[c][f],
                                      model.variances()[c][f])),
          inputs[f]));
    terms.push_back(ctx.nl.constant(
        NetType::kWide, q16_raw(std::log(model.priors()[c]))));
    scores[c] = sum_tree(ctx.nl, std::move(terms));
  }
  ctx.nl.set_output(ctx.nl.argmax(std::move(scores)));
}

/// Sigmoid ROM over the pre-activation score grid: +-16 covers the curve
/// to under 1.2e-7 saturation error.
LutRom sigmoid_lut(std::size_t size) {
  return uniform_rom(LutRom::Kind::kSigmoid, std::int64_t{16} << 16, size,
                     [](std::int64_t center) {
                       const double x = q16_value(center);
                       return q16_raw(1.0 / (1.0 + std::exp(-x)));
                     });
}

void lower_net_mlp(LowerCtx& ctx, const ml::Mlp& model) {
  const std::size_t k = model.num_classes();
  HMD_REQUIRE(k >= 2, "compile: MLP model is not trained");
  const std::size_t h = model.hidden_units();

  // Hidden layer: folded affine + sigmoid ROM (one shared table).
  const std::uint32_t sig_table = ctx.nl.add_lut(sigmoid_lut(ctx.lut_size));
  const std::vector<NetId> hidden = folded_affine(
      ctx, model.w1(), model.standardizer(),
      [&ctx, sig_table](NetId s) { return ctx.nl.lut_rom(sig_table, s); });

  // Output layer: activations are already value-domain Q16.16 in (0, 1).
  double max_w2 = 0.0;
  for (std::size_t c = 0; c < k; ++c)
    for (std::size_t j = 0; j < h; ++j)
      max_w2 = std::max(max_w2, std::abs(model.w2()[c][j]));
  const std::uint32_t shift2 = weight_shift(max_w2);
  std::vector<NetId> scores(k);
  for (std::size_t c = 0; c < k; ++c)
    scores[c] =
        affine_sum(ctx.nl, hidden, model.w2()[c], model.w2()[c][h], shift2);
  ctx.nl.set_output(ctx.nl.argmax(std::move(scores)));
}

// -- calibration ------------------------------------------------------------

/// Standardizer-carrying schemes (MLR, SVM, MLP): |mean| + 6 sd per feature.
template <class Standardized>
std::vector<double> standardizer_absmax(const Standardized& model,
                                        std::size_t num_features) {
  const ml::Standardizer& std_ = model.standardizer();
  std::vector<double> absmax(num_features, 1.0);
  for (std::size_t f = 0; f < std_.num_features() && f < num_features; ++f)
    absmax[f] = std::abs(std_.means()[f]) + 6.0 * std_.stddevs()[f];
  return absmax;
}

std::vector<double> naive_bayes_absmax(const ml::NaiveBayes& model,
                                       std::size_t num_features) {
  std::vector<double> absmax(num_features, 1.0);
  for (std::size_t c = 0; c < model.num_classes(); ++c)
    for (std::size_t f = 0; f < model.means()[c].size() && f < num_features;
         ++f)
      absmax[f] =
          std::max(absmax[f], std::abs(model.means()[c][f]) +
                                  6.0 * std::sqrt(model.variances()[c][f]));
  return absmax;
}

// Tree/rule family: every (feature, threshold) compare the lowering bakes.
template <class Note>
void for_each_threshold(const ml::OneR& model, Note note) {
  for (const auto& iv : model.intervals())
    note(model.chosen_feature(), iv.upper_bound);
}

template <class Note>
void for_each_threshold(const ml::DecisionStump& model, Note note) {
  note(model.split_feature(), model.split_threshold());
}

template <class Note>
void for_each_threshold(const ml::J48::Node& node, Note note) {
  if (node.is_leaf()) return;
  note(node.feature, node.threshold);
  for_each_threshold(*node.left, note);
  for_each_threshold(*node.right, note);
}

template <class Note>
void for_each_threshold(const ml::J48& model, Note note) {
  for_each_threshold(model.root(), note);
}

template <class Note>
void for_each_threshold(const ml::JRip& model, Note note) {
  for (const auto& rule : model.rules())
    for (const auto& c : rule.conditions) note(c.feature, c.threshold);
}

/// The grid only has to resolve the baked thresholds — twice the largest
/// magnitude per feature keeps every compare in range.
template <class Tree>
std::vector<double> threshold_absmax(const Tree& model,
                                     std::size_t num_features) {
  std::vector<double> mag(num_features, 0.0);
  for_each_threshold(model, [&mag](std::size_t f, double t) {
    if (f < mag.size() && std::isfinite(t))
      mag[f] = std::max(mag[f], std::abs(t));
  });
  for (double& m : mag) m = std::max(1.0, 2.0 * m);
  return mag;
}

// -- the scheme table -------------------------------------------------------

/// One row per ml::rtl_schemes() entry (a test keeps the two equal), keyed
/// by Classifier::name(): its dataset-free grid bound and its lowering.
struct SchemeLowering {
  const char* scheme;
  std::vector<double> (*absmax)(const ml::Classifier& clf,
                                std::size_t num_features);
  void (*lower)(LowerCtx& ctx, const ml::Classifier& clf);
};

template <class M, std::vector<double> (*Absmax)(const M&, std::size_t),
          void (*Lower)(LowerCtx&, const M&)>
constexpr SchemeLowering lowering(const char* scheme) {
  return {scheme,
          [](const ml::Classifier& clf, std::size_t num_features) {
            return Absmax(ml::unwrap_as<M>(clf), num_features);
          },
          [](LowerCtx& ctx, const ml::Classifier& clf) {
            Lower(ctx, ml::unwrap_as<M>(clf));
          }};
}

const SchemeLowering kLowerings[] = {
    lowering<ml::OneR, threshold_absmax, lower_net_one_r>("OneR"),
    lowering<ml::DecisionStump, threshold_absmax, lower_net_stump>(
        "DecisionStump"),
    lowering<ml::J48, threshold_absmax, lower_net_j48>("J48"),
    lowering<ml::JRip, threshold_absmax, lower_net_jrip>("JRip"),
    lowering<ml::NaiveBayes, naive_bayes_absmax, lower_net_naive_bayes>(
        "NaiveBayes"),
    lowering<ml::Logistic, standardizer_absmax, lower_net_linear>("MLR"),
    lowering<ml::LinearSvm, standardizer_absmax, lower_net_linear>("SVM"),
    lowering<ml::Mlp, standardizer_absmax, lower_net_mlp>("MLP"),
};

const SchemeLowering* find_lowering(const ml::Classifier& clf) {
  const std::string name = clf.unwrap().name();
  for (const SchemeLowering& row : kLowerings)
    if (name == row.scheme) return &row;
  return nullptr;
}

}  // namespace

std::vector<double> model_feature_absmax(const ml::Classifier& clf,
                                         std::size_t num_features) {
  const SchemeLowering* row = find_lowering(clf);
  HMD_REQUIRE(row != nullptr, "model_feature_absmax: no netlist lowering for " +
                                  clf.unwrap().name());
  return row->absmax(clf, num_features);
}

Result<CompiledDesign> try_compile(const ml::Classifier& clf,
                                   CompileOptions options) {
  const ml::Classifier& u = clf.unwrap();
  const SchemeLowering* row = find_lowering(u);
  if (row == nullptr)
    return ErrorInfo(ErrCode::kPrecondition,
                     "no netlist lowering for scheme '" + u.name() +
                         "' (RTL-supported schemes compile; IBk/ZeroR/"
                         "ensembles/one-class do not)")
        .with_context("hw::compile");
  return capture_result([&]() -> CompiledDesign {
    HMD_REQUIRE(u.num_classes() >= 2, "compile: model is not trained");
    HMD_REQUIRE(options.num_features >= 1,
                "CompileOptions.num_features is required");
    HMD_REQUIRE(!options.module_name.empty(),
                "CompileOptions.module_name must not be empty");
    HMD_REQUIRE(options.lut_size >= 2 &&
                    (options.lut_size & (options.lut_size - 1)) == 0 &&
                    options.lut_size <= (1u << 16),
                "CompileOptions.lut_size must be a power of two in [2, 65536]");
    HMD_REQUIRE(options.clock_mhz > 0.0,
                "CompileOptions.clock_mhz must be positive");
    HMD_REQUIRE(options.inferences_per_second > 0.0 &&
                    std::isfinite(options.inferences_per_second),
                "CompileOptions.inferences_per_second must be positive and "
                "finite");

    std::vector<double> absmax = options.feature_absmax.empty()
                                     ? row->absmax(u, options.num_features)
                                     : options.feature_absmax;
    HMD_REQUIRE(absmax.size() == options.num_features,
                "CompileOptions.feature_absmax width mismatch");
    std::vector<double> scales(absmax.size());
    for (std::size_t f = 0; f < absmax.size(); ++f) {
      HMD_REQUIRE(std::isfinite(absmax[f]),
                  "CompileOptions.feature_absmax entries must be finite");
      absmax[f] = std::max(absmax[f], 1e-12);
      scales[f] = q16_input_scale(absmax[f]);
    }

    LowerCtx ctx{Netlist(options.num_features, u.num_classes()), absmax,
                 scales, options.lut_size};
    row->lower(ctx, u);

    return CompiledDesign(std::move(ctx.nl), u.name(),
                          std::move(options.module_name), std::move(absmax),
                          std::move(scales), options.clock_mhz,
                          options.inferences_per_second);
  });
}

CompiledDesign compile(const ml::Classifier& clf, CompileOptions options) {
  return std::move(try_compile(clf, std::move(options)).value());
}

std::string CompiledDesign::emit(const Backend& backend) const {
  return backend.emit(*this);
}

SynthesisReport CompiledDesign::report() const {
  SynthesisReport report;
  report.design_name = scheme_;
  report.clock_mhz = clock_mhz_;
  report.resources = netlist_.total_resources();
  report.latency_cycles = netlist_.latency_cycles();
  report.energy_per_inference_pj = netlist_.total_energy_pj();
  finalize_power(report, inferences_per_second_);
  return report;
}

}  // namespace hmd::hw
