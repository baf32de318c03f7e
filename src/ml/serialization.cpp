#include "ml/serialization.hpp"

#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>
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
#include "util/strings.hpp"

namespace hmd::ml {

namespace {

/// Exact double encoding (hexfloat; strtod parses it back bit-identically).
std::string enc(double v) { return format("%a", v); }

double dec(const std::string& token) {
  const char* begin = token.c_str();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end != begin + token.size())
    throw ParseError("model: bad double token '" + token + "'");
  return v;
}

/// Tokenized line reader with one-token lookahead-free semantics.
class Reader {
 public:
  explicit Reader(std::istream& in) : in_(in) {}

  /// Next non-empty line's tokens; throws at EOF.
  std::vector<std::string> line() {
    std::string raw;
    while (std::getline(in_, raw)) {
      std::vector<std::string> tokens;
      for (const auto& t : split(raw, ' '))
        if (!trim(t).empty()) tokens.emplace_back(trim(t));
      if (!tokens.empty()) return tokens;
    }
    throw ParseError("model: unexpected end of input");
  }

  /// Next line must start with `key`; returns the remaining tokens.
  std::vector<std::string> expect(const std::string& key) {
    auto tokens = line();
    if (tokens.front() != key)
      throw ParseError("model: expected '" + key + "', got '" +
                       tokens.front() + "'");
    tokens.erase(tokens.begin());
    return tokens;
  }

  std::size_t expect_size(const std::string& key) {
    const auto tokens = expect(key);
    if (tokens.size() != 1)
      throw ParseError("model: '" + key + "' needs one value");
    return static_cast<std::size_t>(parse_int(tokens[0]));
  }

 private:
  std::istream& in_;
};

void write_vector(std::ostream& out, const std::string& key,
                  const std::vector<double>& v) {
  out << key;
  for (double x : v) out << ' ' << enc(x);
  out << '\n';
}

std::vector<double> read_vector(Reader& reader, const std::string& key,
                                std::size_t expected) {
  const auto tokens = reader.expect(key);
  if (tokens.size() != expected)
    throw ParseError("model: '" + key + "' expected " +
                     std::to_string(expected) + " values, got " +
                     std::to_string(tokens.size()));
  std::vector<double> v;
  v.reserve(tokens.size());
  for (const auto& t : tokens) v.push_back(dec(t));
  return v;
}

void write_matrix(std::ostream& out, const std::string& key,
                  const std::vector<std::vector<double>>& m) {
  out << key << ' ' << m.size() << ' '
      << (m.empty() ? 0 : m.front().size()) << '\n';
  for (const auto& row : m) write_vector(out, "row", row);
}

/// A flat row-major buffer as `dim`-wide rows.
std::vector<std::vector<double>> unflatten(const std::vector<double>& flat,
                                           std::size_t dim) {
  const std::size_t n = dim == 0 ? 0 : flat.size() / dim;
  std::vector<std::vector<double>> rows(n);
  for (std::size_t r = 0; r < n; ++r)
    rows[r].assign(flat.begin() + static_cast<std::ptrdiff_t>(r * dim),
                   flat.begin() + static_cast<std::ptrdiff_t>((r + 1) * dim));
  return rows;
}

std::vector<std::vector<double>> read_matrix(Reader& reader,
                                             const std::string& key) {
  const auto dims = reader.expect(key);
  if (dims.size() != 2) throw ParseError("model: bad matrix header");
  const auto rows = static_cast<std::size_t>(parse_int(dims[0]));
  const auto cols = static_cast<std::size_t>(parse_int(dims[1]));
  std::vector<std::vector<double>> m;
  m.reserve(rows);
  for (std::size_t r = 0; r < rows; ++r)
    m.push_back(read_vector(reader, "row", cols));
  return m;
}

void write_standardizer(std::ostream& out, const Standardizer& s) {
  write_vector(out, "standardizer_mean", s.means());
  write_vector(out, "standardizer_sd", s.stddevs());
}

/// A class index read from field `key`; must name one of `classes`.
std::size_t class_index(std::size_t cls, std::size_t classes,
                        const std::string& key) {
  if (cls >= classes)
    throw ParseError("model: '" + key + "' class " + std::to_string(cls) +
                     " out of range for " + std::to_string(classes) +
                     " classes");
  return cls;
}

std::size_t class_index(const std::string& token, std::size_t classes,
                        const std::string& key) {
  return class_index(static_cast<std::size_t>(parse_int(token)), classes,
                     key);
}

/// Every row of matrix field `key` must hold `width` values.
void require_row_width(const std::vector<std::vector<double>>& m,
                       std::size_t width, const std::string& key) {
  for (const auto& row : m)
    if (row.size() != width)
      throw ParseError("model: '" + key + "' rows must hold " +
                       std::to_string(width) + " values, got " +
                       std::to_string(row.size()));
}

void write_j48_node(std::ostream& out, const J48::Node& node) {
  if (node.is_leaf()) {
    out << "leaf " << node.cls << ' ' << node.n << ' ' << node.errors
        << '\n';
    return;
  }
  out << "split " << node.feature << ' ' << enc(node.threshold) << ' '
      << node.cls << ' ' << node.n << ' ' << node.errors << '\n';
  write_j48_node(out, *node.left);
  write_j48_node(out, *node.right);
}

std::unique_ptr<J48::Node> read_j48_node(Reader& reader, std::size_t classes) {
  const auto tokens = reader.line();
  auto node = std::make_unique<J48::Node>();
  if (tokens.front() == "leaf") {
    if (tokens.size() != 4) throw ParseError("model: bad leaf line");
    node->cls = class_index(tokens[1], classes, "leaf");
    node->n = static_cast<std::size_t>(parse_int(tokens[2]));
    node->errors = static_cast<std::size_t>(parse_int(tokens[3]));
    return node;
  }
  if (tokens.front() != "split" || tokens.size() != 6)
    throw ParseError("model: bad tree line");
  node->feature = static_cast<std::size_t>(parse_int(tokens[1]));
  node->threshold = dec(tokens[2]);
  node->cls = class_index(tokens[3], classes, "split");
  node->n = static_cast<std::size_t>(parse_int(tokens[4]));
  node->errors = static_cast<std::size_t>(parse_int(tokens[5]));
  node->left = read_j48_node(reader, classes);
  node->right = read_j48_node(reader, classes);
  return node;
}

/// Scheme-dispatched body save/load (kSchemeIo), shared by the top-level
/// entry points and nested committee members. save_body returns false for
/// a scheme without a serialization.
bool save_body(std::ostream& out, const Classifier& clf);
std::unique_ptr<Classifier> load_body(Reader& reader,
                                      const std::string& scheme,
                                      std::size_t classes);

}  // namespace

/// Private-state access point (befriended by the supported classifiers):
/// one save/load pair per scheme. load() fills a freshly constructed
/// model; the scheme and class count come from the file header.
struct ModelIo {
  static Standardizer read_standardizer(Reader& reader) {
    Standardizer s;
    for (const auto& t : reader.expect("standardizer_mean"))
      s.mean_.push_back(dec(t));
    for (const auto& t : reader.expect("standardizer_sd"))
      s.stddev_.push_back(dec(t));
    if (s.mean_.size() != s.stddev_.size())
      throw ParseError("model: standardizer width mismatch");
    return s;
  }

  static void save(std::ostream& out, const ZeroR& m) {
    HMD_REQUIRE(!m.priors_.empty(), "save_model: untrained ZeroR");
    out << "majority " << m.majority_ << '\n';
    write_vector(out, "priors", m.priors_);
  }
  static void load(Reader& reader, std::size_t classes, ZeroR& m) {
    m.majority_ = class_index(reader.expect_size("majority"), classes,
                              "majority");
    const auto tokens = reader.expect("priors");
    for (const auto& t : tokens) m.priors_.push_back(dec(t));
    if (m.priors_.size() != classes)
      throw ParseError("model: prior count mismatch");
  }

  static void save(std::ostream& out, const OneR& m) {
    HMD_REQUIRE(m.trained_, "save_model: untrained OneR");
    out << "feature " << m.feature_ << '\n';
    out << "training_error " << enc(m.training_error_) << '\n';
    out << "intervals " << m.intervals_.size() << '\n';
    for (const auto& iv : m.intervals_)
      out << "interval " << enc(iv.upper_bound) << ' ' << iv.cls << '\n';
  }
  static void load(Reader& reader, std::size_t classes, OneR& m) {
    m.num_classes_ = classes;
    m.feature_ = reader.expect_size("feature");
    m.training_error_ = dec(reader.expect("training_error").at(0));
    const std::size_t n = reader.expect_size("intervals");
    for (std::size_t i = 0; i < n; ++i) {
      const auto tokens = reader.expect("interval");
      if (tokens.size() != 2) throw ParseError("model: bad interval");
      m.intervals_.push_back(
          {.upper_bound = dec(tokens[0]),
           .cls = class_index(tokens[1], classes, "interval")});
    }
    if (m.intervals_.empty()) throw ParseError("model: OneR no intervals");
    m.trained_ = true;
  }

  static void save(std::ostream& out, const DecisionStump& m) {
    HMD_REQUIRE(m.trained_, "save_model: untrained DecisionStump");
    out << "split " << m.feature_ << ' ' << enc(m.threshold_) << ' '
        << m.left_class_ << ' ' << m.right_class_ << '\n';
  }
  static void load(Reader& reader, std::size_t classes, DecisionStump& m) {
    m.num_classes_ = classes;
    const auto tokens = reader.expect("split");
    if (tokens.size() != 4) throw ParseError("model: bad stump");
    m.feature_ = static_cast<std::size_t>(parse_int(tokens[0]));
    m.threshold_ = dec(tokens[1]);
    m.left_class_ = class_index(tokens[2], classes, "split");
    m.right_class_ = class_index(tokens[3], classes, "split");
    m.trained_ = true;
  }

  static void save(std::ostream& out, const J48& m) {
    HMD_REQUIRE(m.root_ != nullptr, "save_model: untrained J48");
    write_j48_node(out, *m.root_);
  }
  static void load(Reader& reader, std::size_t classes, J48& m) {
    m.num_classes_ = classes;
    m.root_ = read_j48_node(reader, classes);
  }

  static void save(std::ostream& out, const JRip& m) {
    HMD_REQUIRE(m.trained_, "save_model: untrained JRip");
    out << "default " << m.default_class_ << '\n';
    out << "rules " << m.rules_.size() << '\n';
    for (const auto& rule : m.rules_) {
      out << "rule " << rule.cls << ' ' << rule.conditions.size() << '\n';
      for (const auto& cond : rule.conditions)
        out << "cond " << cond.feature << ' ' << (cond.greater ? 1 : 0)
            << ' ' << enc(cond.threshold) << '\n';
    }
  }
  static void load(Reader& reader, std::size_t classes, JRip& m) {
    m.num_classes_ = classes;
    m.default_class_ =
        class_index(reader.expect_size("default"), classes, "default");
    const std::size_t n_rules = reader.expect_size("rules");
    for (std::size_t r = 0; r < n_rules; ++r) {
      const auto head = reader.expect("rule");
      if (head.size() != 2) throw ParseError("model: bad rule header");
      JRip::Rule rule;
      rule.cls = class_index(head[0], classes, "rule");
      const auto n_conds = static_cast<std::size_t>(parse_int(head[1]));
      for (std::size_t c = 0; c < n_conds; ++c) {
        const auto tokens = reader.expect("cond");
        if (tokens.size() != 3) throw ParseError("model: bad condition");
        rule.conditions.push_back(
            {.feature = static_cast<std::size_t>(parse_int(tokens[0])),
             .greater = parse_int(tokens[1]) != 0,
             .threshold = dec(tokens[2])});
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
  static void load(Reader& reader, std::size_t classes, NaiveBayes& m) {
    const auto tokens = reader.expect("priors");
    for (const auto& t : tokens) m.priors_.push_back(dec(t));
    m.mean_ = read_matrix(reader, "means");
    m.var_ = read_matrix(reader, "variances");
    if (m.priors_.size() != classes || m.mean_.size() != classes ||
        m.var_.size() != classes)
      throw ParseError("model: NaiveBayes shape mismatch");
    require_row_width(m.var_, m.mean_.front().size(), "variances");
  }

  // MLR and SVM share one body: a standardizer plus one d+1 wide weight
  // row (bias last) per class.
  template <class Linear>
  static void save_linear(std::ostream& out, const Linear& m) {
    HMD_REQUIRE(!m.weights_.empty(), "save_model: untrained " + m.name());
    write_standardizer(out, m.standardizer_);
    write_matrix(out, "weights", m.weights_);
  }
  template <class Linear>
  static void load_linear(Reader& reader, std::size_t classes, Linear& m) {
    m.standardizer_ = read_standardizer(reader);
    m.weights_ = read_matrix(reader, "weights");
    if (m.weights_.size() != classes)
      throw ParseError("model: " + m.name() + " shape mismatch");
    require_row_width(m.weights_, m.standardizer_.num_features() + 1,
                      "weights");
    m.build_packed();
  }
  static void save(std::ostream& out, const Logistic& m) {
    save_linear(out, m);
  }
  static void load(Reader& reader, std::size_t classes, Logistic& m) {
    load_linear(reader, classes, m);
  }
  static void save(std::ostream& out, const LinearSvm& m) {
    save_linear(out, m);
  }
  static void load(Reader& reader, std::size_t classes, LinearSvm& m) {
    load_linear(reader, classes, m);
  }

  static void save(std::ostream& out, const Mlp& m) {
    HMD_REQUIRE(!m.w2_.empty(), "save_model: untrained MLP");
    write_standardizer(out, m.standardizer_);
    write_matrix(out, "w1", m.w1_);
    write_matrix(out, "w2", m.w2_);
  }
  static void load(Reader& reader, std::size_t classes, Mlp& m) {
    m.standardizer_ = read_standardizer(reader);
    m.w1_ = read_matrix(reader, "w1");
    m.w2_ = read_matrix(reader, "w2");
    if (m.w2_.size() != classes)
      throw ParseError("model: MLP shape mismatch");
    require_row_width(m.w1_, m.standardizer_.num_features() + 1, "w1");
    require_row_width(m.w2_, m.w1_.size() + 1, "w2");
    m.build_packed();
  }

  static void save(std::ostream& out, const Knn& m) {
    HMD_REQUIRE(!m.points_.empty(), "save_model: untrained IBk");
    out << "k " << m.k_ << '\n';
    write_standardizer(out, m.standardizer_);
    out << "labels";
    for (std::size_t l : m.labels_) out << ' ' << l;
    out << '\n';
    // points_ is stored flat row-major; the on-disk format stays one row
    // per reference point.
    write_matrix(out, "points",
                 unflatten(m.points_, m.standardizer_.means().size()));
  }
  static void load(Reader& reader, std::size_t classes, Knn& m) {
    m.num_classes_ = classes;
    m.k_ = reader.expect_size("k");
    m.standardizer_ = read_standardizer(reader);
    const auto tokens = reader.expect("labels");
    for (const auto& t : tokens)
      m.labels_.push_back(static_cast<std::size_t>(parse_int(t)));
    const auto rows = read_matrix(reader, "points");
    if (rows.size() != m.labels_.size() || rows.empty())
      throw ParseError("model: IBk shape mismatch");
    const std::size_t dim = rows.front().size();
    m.points_.reserve(rows.size() * dim);
    for (const auto& row : rows) {
      if (row.size() != dim)
        throw ParseError("model: IBk ragged points matrix");
      m.points_.insert(m.points_.end(), row.begin(), row.end());
    }
    m.build_quantized();
    m.build_index();
    for (std::size_t l : m.labels_)
      if (l >= classes) throw ParseError("model: IBk label out of range");
  }

  // ----- committees: alphas (AdaBoost only) plus each member as a nested
  // "member <scheme>" block reusing the member scheme's own format.
  static void save_committee(
      std::ostream& out, const std::vector<std::unique_ptr<Classifier>>& members,
      const std::vector<double>* alphas) {
    out << "members " << members.size() << '\n';
    if (alphas != nullptr) write_vector(out, "alphas", *alphas);
    for (const auto& member : members) {
      out << "member " << member->name() << '\n';
      if (!save_body(out, *member))
        throw PreconditionError("save_model: no serialization for member " +
                                member->name());
    }
  }
  static std::vector<std::unique_ptr<Classifier>> load_committee(
      Reader& reader, std::size_t classes, std::vector<double>* alphas) {
    const std::size_t n_members = reader.expect_size("members");
    if (n_members == 0) throw ParseError("model: empty committee");
    if (alphas != nullptr) *alphas = read_vector(reader, "alphas", n_members);
    std::vector<std::unique_ptr<Classifier>> members;
    members.reserve(n_members);
    for (std::size_t i = 0; i < n_members; ++i) {
      const auto head = reader.expect("member");
      if (head.size() != 1) throw ParseError("model: bad member header");
      members.push_back(load_body(reader, head[0], classes));
    }
    return members;
  }
  static void save(std::ostream& out, const AdaBoostM1& m) {
    HMD_REQUIRE(!m.members_.empty(), "save_model: untrained AdaBoostM1");
    save_committee(out, m.members_, &m.alphas_);
  }
  static void load(Reader& reader, std::size_t classes, AdaBoostM1& m) {
    m.num_classes_ = classes;
    m.members_ = load_committee(reader, classes, &m.alphas_);
  }
  static void save(std::ostream& out, const Bagging& m) {
    HMD_REQUIRE(!m.members_.empty(), "save_model: untrained Bagging");
    save_committee(out, m.members_, nullptr);
  }
  static void load(Reader& reader, std::size_t classes, Bagging& m) {
    m.num_classes_ = classes;
    m.members_ = load_committee(reader, classes, nullptr);
  }

  // ----- one-class family: binary by construction; every block ends with
  // the calibrated sigmoid.
  static void save_calibration(std::ostream& out,
                               const OneClassClassifier& m) {
    out << "threshold " << enc(m.threshold_) << '\n';
    out << "scale " << enc(m.scale_) << '\n';
  }
  static void load_calibration(Reader& reader, OneClassClassifier& m) {
    m.threshold_ = dec(reader.expect("threshold").at(0));
    m.scale_ = dec(reader.expect("scale").at(0));
    if (m.scale_ <= 0.0)
      throw ParseError("model: one-class scale must be positive");
  }
  static void require_binary(std::size_t classes, const Classifier& m) {
    if (classes != 2)
      throw ParseError("model: " + m.name() + " must be binary");
  }

  static void save(std::ostream& out, const OneClassSvm& m) {
    HMD_REQUIRE(m.calibrated(), "save_model: untrained OneClassSvm");
    write_vector(out, "mean", m.mean_);
    write_vector(out, "sd", m.sd_);
    write_vector(out, "weights", m.weights_);
    out << "rho " << enc(m.rho_) << '\n';
    save_calibration(out, m);
  }
  static void load(Reader& reader, std::size_t classes, OneClassSvm& m) {
    require_binary(classes, m);
    for (const auto& t : reader.expect("mean")) m.mean_.push_back(dec(t));
    m.sd_ = read_vector(reader, "sd", m.mean_.size());
    m.weights_ = read_vector(reader, "weights", 2 * m.mean_.size());
    if (m.mean_.empty())
      throw ParseError("model: OneClassSvm shape mismatch");
    m.rho_ = dec(reader.expect("rho").at(0));
    load_calibration(reader, m);
  }

  static void save(std::ostream& out, const KdeAnomaly& m) {
    HMD_REQUIRE(m.calibrated(), "save_model: untrained KdeAnomaly");
    write_vector(out, "mean", m.mean_);
    write_vector(out, "sd", m.sd_);
    out << "bandwidth " << enc(m.bandwidth_) << '\n';
    write_matrix(out, "points", unflatten(m.points_, m.mean_.size()));
    save_calibration(out, m);
  }
  static void load(Reader& reader, std::size_t classes, KdeAnomaly& m) {
    require_binary(classes, m);
    for (const auto& t : reader.expect("mean")) m.mean_.push_back(dec(t));
    m.sd_ = read_vector(reader, "sd", m.mean_.size());
    m.bandwidth_ = dec(reader.expect("bandwidth").at(0));
    if (m.mean_.empty() || m.bandwidth_ <= 0.0)
      throw ParseError("model: KdeAnomaly shape mismatch");
    const auto rows = read_matrix(reader, "points");
    if (rows.empty()) throw ParseError("model: KdeAnomaly has no points");
    m.points_.reserve(rows.size() * m.mean_.size());
    for (const auto& row : rows) {
      if (row.size() != m.mean_.size())
        throw ParseError("model: KdeAnomaly point width mismatch");
      m.points_.insert(m.points_.end(), row.begin(), row.end());
    }
    load_calibration(reader, m);
  }

  static void save(std::ostream& out, const MahalanobisThreshold& m) {
    HMD_REQUIRE(m.calibrated(), "save_model: untrained MahalanobisThreshold");
    write_vector(out, "mean", m.mean_);
    std::vector<std::vector<double>> precision(m.precision_.rows());
    for (std::size_t r = 0; r < m.precision_.rows(); ++r) {
      const auto row = m.precision_.row(r);
      precision[r].assign(row.begin(), row.end());
    }
    write_matrix(out, "precision", precision);
    save_calibration(out, m);
  }
  static void load(Reader& reader, std::size_t classes,
                   MahalanobisThreshold& m) {
    require_binary(classes, m);
    for (const auto& t : reader.expect("mean")) m.mean_.push_back(dec(t));
    const auto precision = read_matrix(reader, "precision");
    if (precision.size() != m.mean_.size() || m.mean_.empty())
      throw ParseError("model: MahalanobisThreshold shape mismatch");
    m.precision_ = Matrix(precision.size(), precision.size());
    for (std::size_t r = 0; r < precision.size(); ++r) {
      if (precision[r].size() != m.mean_.size())
        throw ParseError("model: MahalanobisThreshold precision not square");
      for (std::size_t c = 0; c < precision[r].size(); ++c)
        m.precision_(r, c) = precision[r][c];
    }
    load_calibration(reader, m);
  }
};

namespace {

/// One row per serializable scheme, keyed by the name the file header
/// carries (Classifier::name() of the unwrapped model).
struct SchemeIo {
  const char* scheme;
  void (*save)(std::ostream& out, const Classifier& clf);
  std::unique_ptr<Classifier> (*load)(Reader& reader, std::size_t classes);
};

template <class M>
void save_as(std::ostream& out, const Classifier& clf) {
  ModelIo::save(out, unwrap_as<M>(clf));
}

template <class M>
std::unique_ptr<Classifier> load_as(Reader& reader, std::size_t classes) {
  std::unique_ptr<M> m;
  if constexpr (std::is_default_constructible_v<M>) {
    m = std::make_unique<M>();
  } else {
    // Committees: the factory is only needed to (re)train, so a loaded
    // committee is inference-only until train() is called on a fresh one.
    m = std::make_unique<M>(BaseFactory{});
  }
  ModelIo::load(reader, classes, *m);
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

const SchemeIo* find_io(const std::string& scheme) {
  for (const SchemeIo& row : kSchemeIo)
    if (scheme == row.scheme) return &row;
  return nullptr;
}

bool save_body(std::ostream& out, const Classifier& clf) {
  const SchemeIo* row = find_io(clf.unwrap().name());
  if (row == nullptr) return false;
  row->save(out, clf);
  return true;
}

std::unique_ptr<Classifier> load_body(Reader& reader,
                                      const std::string& scheme,
                                      std::size_t classes) {
  const SchemeIo* row = find_io(scheme);
  if (row == nullptr)
    throw ParseError("model: unsupported scheme '" + scheme + "'");
  return row->load(reader, classes);
}

}  // namespace

void save_model(std::ostream& out, const Classifier& clf) {
  HMD_REQUIRE(clf.num_classes() >= 2, "save_model: classifier not trained");
  out << "hmd-model v1\n";
  out << "scheme " << clf.name() << '\n';
  out << "classes " << clf.num_classes() << '\n';

  if (!save_body(out, clf))
    throw PreconditionError("save_model: no serialization for " + clf.name());

  out << "end\n";
}

namespace {

/// The actual parser; throws ParseError on malformed input.
std::unique_ptr<Classifier> load_model_impl(std::istream& in) {
  Reader reader(in);
  {
    const auto header = reader.line();
    if (header.size() != 2 || header[0] != "hmd-model" || header[1] != "v1")
      throw ParseError("model: bad header (expected 'hmd-model v1')");
  }
  const auto scheme_tokens = reader.expect("scheme");
  if (scheme_tokens.size() != 1) throw ParseError("model: bad scheme line");
  const std::size_t classes = reader.expect_size("classes");
  if (classes < 2) throw ParseError("model: class count must be >= 2");

  std::unique_ptr<Classifier> model =
      load_body(reader, scheme_tokens[0], classes);
  reader.expect("end");
  return model;
}

}  // namespace

Result<std::unique_ptr<Classifier>> try_load_model(std::istream& in) {
  return capture_result([&in] { return load_model_impl(in); })
      .with_context("loading model");
}

std::unique_ptr<Classifier> load_model(std::istream& in) {
  // Thin throwing wrapper: value() raises the ErrorInfo as a ParseError.
  return try_load_model(in).value();
}

}  // namespace hmd::ml
