#include "ml/serialization.hpp"

#include <algorithm>
#include <concepts>
#include <istream>
#include <ostream>
#include <span>
#include <type_traits>

#include "ml/decision_stump.hpp"
#include "ml/ensemble.hpp"
#include "ml/j48.hpp"
#include "ml/jrip.hpp"
#include "ml/knn.hpp"
#include "ml/logistic.hpp"
#include "ml/mlp.hpp"
#include "ml/naive_bayes.hpp"
#include "ml/one_class.hpp"
#include "ml/one_r.hpp"
#include "ml/svm.hpp"
#include "ml/zero_r.hpp"
#include "util/error.hpp"
#include "util/token_reader.hpp"

namespace hmd::ml {

namespace {

/// Largest class count a model may declare: it sizes every distribution.
constexpr std::uint64_t kMaxClasses = 1u << 16;

constexpr std::size_t kAny = static_cast<std::size_t>(-1);  ///< read_matrix

void write_vector(std::ostream& out, const std::string& key,
                  std::span<const double> v) {
  out << key;
  for (double x : v) out << ' ' << hexfloat(x);
  out << '\n';
}

/// A "<key> <real>*" line holding exactly `n` values.
std::vector<double> read_vector(TokenReader& in, std::string_view key,
                                std::size_t n) {
  std::vector<double> v = in.reals_line(key);
  if (v.size() != n)
    in.fail(key, "expected " + std::to_string(n) + " values, got " +
                     std::to_string(v.size()));
  return v;
}

void write_matrix(std::ostream& out, const std::string& key,
                  const std::vector<std::vector<double>>& m) {
  out << key << ' ' << m.size() << ' '
      << (m.empty() ? 0 : m.front().size()) << '\n';
  for (const auto& row : m) write_vector(out, "row", row);
}

/// A row-major buffer of `cols`-wide rows, as write_matrix writes it.
void write_rows(std::ostream& out, const std::string& key,
                std::span<const double> flat, std::size_t cols) {
  out << key << ' ' << flat.size() / cols << ' ' << cols << '\n';
  for (std::size_t at = 0; at < flat.size(); at += cols)
    write_vector(out, "row", flat.subspan(at, cols));
}

/// A "<key> <rows> <cols>" header and its "row <real>*cols" lines; a shape
/// other than `want_rows` x `want_cols` (kAny: free) fails at the header.
std::vector<std::vector<double>> read_matrix(TokenReader& in,
                                             std::string_view key,
                                             std::size_t want_rows,
                                             std::size_t want_cols) {
  in.line(key);
  const std::uint64_t rows = in.count(key);
  const std::uint64_t cols = in.count(key);
  in.end_line();
  if (want_rows != kAny && rows != want_rows)
    in.fail(key, "expected " + std::to_string(want_rows) + " rows, got " +
                     std::to_string(rows));
  if (want_cols != kAny && cols != want_cols)
    in.fail(key, "rows must hold " + std::to_string(want_cols) +
                     " values, got " + std::to_string(cols));
  std::vector<std::vector<double>> m;
  for (std::uint64_t r = 0; r < rows; ++r) {
    in.line("row");
    m.push_back(in.reals(key));
    if (m.back().size() != cols)
      in.fail(key, "row holds " + std::to_string(m.back().size()) +
                       " values, header says " + std::to_string(cols));
  }
  return m;
}

void write_standardizer(std::ostream& out, const Standardizer& s) {
  write_vector(out, "standardizer_mean", s.means());
  write_vector(out, "standardizer_sd", s.stddevs());
}

/// A class index read from field `field`; must name one of `classes`.
std::size_t read_class(TokenReader& in, std::size_t classes,
                       std::string_view field) {
  const std::uint64_t cls = in.count(field);
  if (cls >= classes)
    in.fail(field, "class " + std::to_string(cls) + " out of range for " +
                       std::to_string(classes) + " classes");
  return cls;
}

void write_j48_node(std::ostream& out, const J48::Node& node) {
  if (node.is_leaf()) {
    out << "leaf " << node.cls << ' ' << node.n << ' ' << node.errors
        << '\n';
    return;
  }
  out << "split " << node.feature << ' ' << hexfloat(node.threshold) << ' '
      << node.cls << ' ' << node.n << ' ' << node.errors << '\n';
  write_j48_node(out, *node.left);
  write_j48_node(out, *node.right);
}

std::unique_ptr<J48::Node> read_j48_node(TokenReader& in, std::size_t classes) {
  if (!in.next_line()) in.fail("leaf", "unexpected end of input");
  in.enter("split");
  auto node = std::make_unique<J48::Node>();
  const std::string kind = in.peek() == "leaf" ? "leaf" : "split";
  in.keyword(kind);
  if (kind == "split") {
    node->feature = in.count(kind);
    node->threshold = in.real(kind);
  }
  node->cls = read_class(in, classes, kind);
  node->n = in.count(kind);
  node->errors = in.count(kind);
  in.end_line();
  if (kind == "split") {
    node->left = read_j48_node(in, classes);
    node->right = read_j48_node(in, classes);
  }
  in.leave();
  return node;
}

/// One row per serializable scheme, keyed by the name the file header
/// carries (Classifier::name() of the unwrapped model).
struct SchemeIo {
  const char* scheme;
  void (*save)(std::ostream& out, const Classifier& clf);
  std::unique_ptr<Classifier> (*load)(TokenReader& in, std::size_t classes);
};

/// Scheme-dispatched body save (kSchemeIo) for the top level and committee
/// members; throws PreconditionError for a scheme without a serialization.
void save_body(std::ostream& out, const Classifier& clf);
/// The kSchemeIo row named by the last token of the current line.
const SchemeIo& read_scheme(TokenReader& in, std::string_view field);

}  // namespace

/// Private-state access point (befriended by the supported classifiers):
/// one save/load pair per scheme. load() fills a freshly constructed
/// model; the scheme and class count come from the file header.
struct ModelIo {
  static Standardizer read_standardizer(TokenReader& in) {
    Standardizer s;
    s.mean_ = in.reals_line("standardizer_mean");
    if (s.mean_.empty()) in.fail("standardizer_mean", "no features");
    s.stddev_ = read_vector(in, "standardizer_sd", s.mean_.size());
    return s;
  }

  static void save(std::ostream& out, const ZeroR& m) {
    HMD_REQUIRE(!m.priors_.empty(), "save_model: untrained ZeroR");
    out << "majority " << m.majority_ << '\n';
    write_vector(out, "priors", m.priors_);
  }
  static void load(TokenReader& in, std::size_t classes, ZeroR& m) {
    in.line("majority");
    m.majority_ = read_class(in, classes, "majority");
    in.end_line();
    m.priors_ = read_vector(in, "priors", classes);
  }

  static void save(std::ostream& out, const OneR& m) {
    HMD_REQUIRE(m.trained_, "save_model: untrained OneR");
    out << "feature " << m.feature_ << '\n';
    out << "training_error " << hexfloat(m.training_error_) << '\n';
    out << "intervals " << m.intervals_.size() << '\n';
    for (const auto& iv : m.intervals_)
      out << "interval " << hexfloat(iv.upper_bound) << ' ' << iv.cls << '\n';
  }
  static void load(TokenReader& in, std::size_t classes, OneR& m) {
    m.num_classes_ = classes;
    m.feature_ = in.count_line("feature");
    m.training_error_ = in.real_line("training_error");
    const std::uint64_t n = in.count_line("intervals");
    if (n == 0) in.fail("intervals", "OneR needs an interval");
    for (std::uint64_t i = 0; i < n; ++i) {
      in.line("interval");
      m.intervals_.push_back(
          {.upper_bound = in.real("interval"),
           .cls = read_class(in, classes, "interval")});
      in.end_line();
    }
    m.trained_ = true;
  }

  static void save(std::ostream& out, const DecisionStump& m) {
    HMD_REQUIRE(m.trained_, "save_model: untrained DecisionStump");
    out << "split " << m.feature_ << ' ' << hexfloat(m.threshold_) << ' '
        << m.left_class_ << ' ' << m.right_class_ << '\n';
  }
  static void load(TokenReader& in, std::size_t classes, DecisionStump& m) {
    m.num_classes_ = classes;
    in.line("split");
    m.feature_ = in.count("split");
    m.threshold_ = in.real("split");
    m.left_class_ = read_class(in, classes, "split");
    m.right_class_ = read_class(in, classes, "split");
    in.end_line();
    m.trained_ = true;
  }

  static void save(std::ostream& out, const J48& m) {
    HMD_REQUIRE(m.root_ != nullptr, "save_model: untrained J48");
    write_j48_node(out, *m.root_);
  }
  static void load(TokenReader& in, std::size_t classes, J48& m) {
    m.num_classes_ = classes;
    m.root_ = read_j48_node(in, classes);
  }

  static void save(std::ostream& out, const JRip& m) {
    HMD_REQUIRE(m.trained_, "save_model: untrained JRip");
    out << "default " << m.default_class_ << '\n';
    out << "rules " << m.rules_.size() << '\n';
    for (const auto& rule : m.rules_) {
      out << "rule " << rule.cls << ' ' << rule.conditions.size() << '\n';
      for (const auto& cond : rule.conditions)
        out << "cond " << cond.feature << ' ' << (cond.greater ? 1 : 0)
            << ' ' << hexfloat(cond.threshold) << '\n';
    }
  }
  static void load(TokenReader& in, std::size_t classes, JRip& m) {
    m.num_classes_ = classes;
    in.line("default");
    m.default_class_ = read_class(in, classes, "default");
    in.end_line();
    const std::uint64_t n_rules = in.count_line("rules");
    for (std::uint64_t r = 0; r < n_rules; ++r) {
      in.line("rule");
      JRip::Rule rule;
      rule.cls = read_class(in, classes, "rule");
      const std::uint64_t n_conds = in.count("rule");
      in.end_line();
      for (std::uint64_t c = 0; c < n_conds; ++c) {
        in.line("cond");
        rule.conditions.push_back({.feature = in.count("cond"),
                                   .greater = in.flag("cond"),
                                   .threshold = in.real("cond")});
        in.end_line();
      }
      m.rules_.push_back(std::move(rule));
    }
    m.trained_ = true;
  }

  static void save(std::ostream& out, const NaiveBayes& m) {
    HMD_REQUIRE(!m.priors_.empty(), "save_model: untrained NaiveBayes");
    write_vector(out, "priors", m.priors_);
    write_matrix(out, "means", m.mean_);
    write_matrix(out, "variances", m.var_);
  }
  static void load(TokenReader& in, std::size_t classes, NaiveBayes& m) {
    m.priors_ = read_vector(in, "priors", classes);
    m.mean_ = read_matrix(in, "means", classes, kAny);
    m.var_ = read_matrix(in, "variances", classes, m.mean_.front().size());
  }

  // MLR and SVM share one body: a standardizer plus one d+1 wide weight
  // row (bias last) per class.
  template <class Linear>
    requires std::same_as<Linear, Logistic> || std::same_as<Linear, LinearSvm>
  static void save(std::ostream& out, const Linear& m) {
    HMD_REQUIRE(!m.weights_.empty(), "save_model: untrained " + m.name());
    write_standardizer(out, m.standardizer_);
    write_matrix(out, "weights", m.weights_);
  }
  template <class Linear>
    requires std::same_as<Linear, Logistic> || std::same_as<Linear, LinearSvm>
  static void load(TokenReader& in, std::size_t classes, Linear& m) {
    m.standardizer_ = read_standardizer(in);
    m.weights_ = read_matrix(in, "weights", classes,
                             m.standardizer_.num_features() + 1);
    m.build_packed();
  }

  static void save(std::ostream& out, const Mlp& m) {
    HMD_REQUIRE(!m.w2_.empty(), "save_model: untrained MLP");
    write_standardizer(out, m.standardizer_);
    write_matrix(out, "w1", m.w1_);
    write_matrix(out, "w2", m.w2_);
  }
  static void load(TokenReader& in, std::size_t classes, Mlp& m) {
    m.standardizer_ = read_standardizer(in);
    m.w1_ = read_matrix(in, "w1", kAny,
                        m.standardizer_.num_features() + 1);
    m.w2_ = read_matrix(in, "w2", classes, m.w1_.size() + 1);
    m.build_packed();
  }

  static void save(std::ostream& out, const Knn& m) {
    HMD_REQUIRE(!m.points_.empty(), "save_model: untrained IBk");
    out << "k " << m.k_ << '\n';
    write_standardizer(out, m.standardizer_);
    out << "labels";
    for (std::size_t l : m.labels_) out << ' ' << l;
    out << '\n';
    write_rows(out, "points", m.points_, m.standardizer_.num_features());
  }
  static void load(TokenReader& in, std::size_t classes, Knn& m) {
    m.num_classes_ = classes;
    m.k_ = m.requested_k_ = in.count_line("k");
    m.standardizer_ = read_standardizer(in);
    in.line("labels");
    while (!in.peek().empty())
      m.labels_.push_back(read_class(in, classes, "labels"));
    // The scorer reserves k heap slots per query: k beyond the store is a
    // file no training run writes.
    if (m.k_ == 0 || m.k_ > m.labels_.size())
      in.fail("k", "must be in [1, " + std::to_string(m.labels_.size()) + "]");
    for (const auto& row : read_matrix(in, "points", m.labels_.size(),
                                       m.standardizer_.num_features()))
      m.points_.insert(m.points_.end(), row.begin(), row.end());
    m.build_index();
  }

  // ----- committees: "members <n>", the alphas (AdaBoost only), then each
  // member as a nested "member <scheme>" block in its scheme's own format.
  template <class Committee>
    requires std::same_as<Committee, AdaBoostM1> ||
             std::same_as<Committee, Bagging>
  static void save(std::ostream& out, const Committee& m) {
    HMD_REQUIRE(!m.members_.empty(), "save_model: untrained " + m.name());
    out << "members " << m.members_.size() << '\n';
    if constexpr (std::same_as<Committee, AdaBoostM1>)
      write_vector(out, "alphas", m.alphas_);
    for (const auto& member : m.members_) {
      out << "member " << member->name() << '\n';
      save_body(out, *member);
    }
  }
  template <class Committee>
    requires std::same_as<Committee, AdaBoostM1> ||
             std::same_as<Committee, Bagging>
  static void load(TokenReader& in, std::size_t classes, Committee& m) {
    m.num_classes_ = classes;
    const std::uint64_t n_members = in.count_line("members");
    if (n_members == 0) in.fail("members", "empty committee");
    if constexpr (std::same_as<Committee, AdaBoostM1>)
      m.alphas_ = read_vector(in, "alphas", n_members);
    for (std::uint64_t i = 0; i < n_members; ++i) {
      in.line("member");
      in.enter("member");
      m.members_.push_back(read_scheme(in, "member").load(in, classes));
      in.leave();
    }
  }

  // ----- one-class family: binary by construction (load_as checks the
  // class count); every block ends with the calibrated sigmoid.
  static void save_calibration(std::ostream& out,
                               const OneClassClassifier& m) {
    out << "threshold " << hexfloat(m.threshold_) << '\n';
    out << "scale " << hexfloat(m.scale_) << '\n';
  }
  static void load_calibration(TokenReader& in, OneClassClassifier& m) {
    m.threshold_ = in.real_line("threshold");
    m.scale_ = in.real_line("scale");
    if (m.scale_ <= 0.0) in.fail("scale", "must be positive");
  }

  static void save(std::ostream& out, const OneClassSvm& m) {
    HMD_REQUIRE(m.calibrated(), "save_model: untrained OneClassSvm");
    write_vector(out, "mean", m.mean_);
    write_vector(out, "sd", m.sd_);
    write_vector(out, "weights", m.weights_);
    out << "rho " << hexfloat(m.rho_) << '\n';
    save_calibration(out, m);
  }
  static void load(TokenReader& in, std::size_t, OneClassSvm& m) {
    m.mean_ = in.reals_line("mean");
    if (m.mean_.empty()) in.fail("mean", "no features");
    m.sd_ = read_vector(in, "sd", m.mean_.size());
    m.weights_ = read_vector(in, "weights", 2 * m.mean_.size());
    m.rho_ = in.real_line("rho");
    load_calibration(in, m);
  }

  static void save(std::ostream& out, const KdeAnomaly& m) {
    HMD_REQUIRE(m.calibrated(), "save_model: untrained KdeAnomaly");
    write_vector(out, "mean", m.mean_);
    write_vector(out, "sd", m.sd_);
    out << "bandwidth " << hexfloat(m.bandwidth_) << '\n';
    write_rows(out, "points", m.points_, m.mean_.size());
    save_calibration(out, m);
  }
  static void load(TokenReader& in, std::size_t, KdeAnomaly& m) {
    m.mean_ = in.reals_line("mean");
    if (m.mean_.empty()) in.fail("mean", "no features");
    m.sd_ = read_vector(in, "sd", m.mean_.size());
    m.bandwidth_ = in.real_line("bandwidth");
    if (m.bandwidth_ <= 0.0) in.fail("bandwidth", "must be positive");
    const auto rows = read_matrix(in, "points", kAny, m.mean_.size());
    if (rows.empty()) in.fail("points", "KdeAnomaly has no points");
    for (const auto& row : rows)
      m.points_.insert(m.points_.end(), row.begin(), row.end());
    load_calibration(in, m);
  }

  static void save(std::ostream& out, const MahalanobisThreshold& m) {
    HMD_REQUIRE(m.calibrated(), "save_model: untrained MahalanobisThreshold");
    write_vector(out, "mean", m.mean_);
    const std::size_t d = m.precision_.rows();
    out << "precision " << d << ' ' << d << '\n';
    for (std::size_t r = 0; r < d; ++r)
      write_vector(out, "row", m.precision_.row(r));
    save_calibration(out, m);
  }
  static void load(TokenReader& in, std::size_t, MahalanobisThreshold& m) {
    m.mean_ = in.reals_line("mean");
    if (m.mean_.empty()) in.fail("mean", "no features");
    const std::size_t d = m.mean_.size();
    const auto precision = read_matrix(in, "precision", d, d);
    m.precision_ = Matrix(d, d);
    for (std::size_t r = 0; r < d; ++r)
      std::copy(precision[r].begin(), precision[r].end(),
                m.precision_.mutable_row(r).begin());
    load_calibration(in, m);
  }
};

namespace {

template <class M>
void save_as(std::ostream& out, const Classifier& clf) {
  ModelIo::save(out, unwrap_as<M>(clf));
}

template <class M>
std::unique_ptr<Classifier> load_as(TokenReader& in, std::size_t classes) {
  std::unique_ptr<M> m;
  if constexpr (std::is_default_constructible_v<M>) {
    m = std::make_unique<M>();
  } else {
    // Committees: the factory is only needed to (re)train, so a loaded
    // committee is inference-only until train() is called on a fresh one.
    m = std::make_unique<M>(BaseFactory{});
  }
  if (std::is_base_of_v<OneClassClassifier, M> && classes != 2)
    in.fail("classes", m->name() + " must be binary");
  ModelIo::load(in, classes, *m);
  return m;
}

template <class M>
constexpr SchemeIo io(const char* scheme) {
  return {scheme, &save_as<M>, &load_as<M>};
}

const SchemeIo kSchemeIo[] = {
    io<ZeroR>("ZeroR"),
    io<OneR>("OneR"),
    io<DecisionStump>("DecisionStump"),
    io<J48>("J48"),
    io<JRip>("JRip"),
    io<NaiveBayes>("NaiveBayes"),
    io<Logistic>("MLR"),
    io<LinearSvm>("SVM"),
    io<Mlp>("MLP"),
    io<Knn>("IBk"),
    io<AdaBoostM1>("AdaBoostM1"),
    io<Bagging>("Bagging"),
    io<OneClassSvm>("OneClassSvm"),
    io<KdeAnomaly>("KdeAnomaly"),
    io<MahalanobisThreshold>("MahalanobisThreshold"),
};

const SchemeIo* find_io(std::string_view scheme) {
  for (const SchemeIo& row : kSchemeIo)
    if (scheme == row.scheme) return &row;
  return nullptr;
}

void save_body(std::ostream& out, const Classifier& clf) {
  const SchemeIo* row = find_io(clf.unwrap().name());
  if (row == nullptr)
    throw PreconditionError("save_model: no serialization for " + clf.name());
  row->save(out, clf);
}

const SchemeIo& read_scheme(TokenReader& in, std::string_view field) {
  const std::string scheme = in.word(field);
  in.end_line();
  const SchemeIo* row = find_io(scheme);
  if (row == nullptr)
    in.fail(field, "unsupported scheme '" + scheme + "'");
  return *row;
}

}  // namespace

void save_model(std::ostream& out, const Classifier& clf) {
  HMD_REQUIRE(clf.num_classes() >= 2, "save_model: classifier not trained");
  out << "hmd-model v1\n";
  out << "scheme " << clf.name() << '\n';
  out << "classes " << clf.num_classes() << '\n';
  save_body(out, clf);
  out << "end\n";
}

std::unique_ptr<Classifier> read_model(TokenReader& in) {
  in.header("hmd-model", {"v1"});
  in.line("scheme");
  const SchemeIo& scheme = read_scheme(in, "scheme");
  const std::uint64_t classes = in.count_line("classes");
  if (classes < 2 || classes > kMaxClasses)
    in.fail("classes", "must be in [2, " + std::to_string(kMaxClasses) + "]");
  std::unique_ptr<Classifier> model = scheme.load(in, classes);
  in.line("end");
  in.end_line();
  return model;
}

Result<std::unique_ptr<Classifier>> try_load_model(std::istream& in) {
  return capture_result([&in] {
           TokenReader reader(in, "model");
           return read_model(reader);
         })
      .with_context("loading model");
}

std::unique_ptr<Classifier> load_model(std::istream& in) {
  // Thin throwing wrapper: value() raises the ErrorInfo as a ParseError.
  return try_load_model(in).value();
}

}  // namespace hmd::ml
