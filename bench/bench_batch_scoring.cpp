// Scoring-path throughput for the serving-critical predict loops:
//
//  * IBk — the plain brute-force scan (every acceleration hook off) vs
//    the int16-screened scan vs the KD-tree index built at train time.
//    All three paths are bit-identical by contract; this bench pins that
//    with a prediction/distribution fingerprint and reports the indexed
//    speedup over the brute path (target: >= 5x at thesis-shaped
//    dimensionality) plus the screened intermediate.
//  * MLR / SVM / MLP — per-row distribution() vs one distribution_batch
//    call routed through the runtime-dispatched GEMM kernels (target:
//    >= 2x, bit-identical).
//  * q16 serving tier — its accuracy delta vs float on the held-out slice,
//    per scheme.
//
// Emits BENCH_batch_scoring.json (with build/CPU provenance metadata) in
// the working directory and mirrors the numbers as [bench] lines for CI
// greps. Cheap, deterministic, dependency-free — no HPC collection pass.
//
// Scale knobs (environment):
//   HMD_BATCH_ROWS     dataset rows            (default 40000)
//   HMD_BATCH_PREDICT  rows scored per timing  (default 4096)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.hpp"
#include "ml/dataset.hpp"
#include "ml/knn.hpp"
#include "ml/logistic.hpp"
#include "ml/mlp.hpp"
#include "ml/quantized.hpp"
#include "ml/svm.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace {

using namespace hmd;

std::size_t env_or(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0')
             ? static_cast<std::size_t>(std::strtoull(v, nullptr, 10))
             : fallback;
}

constexpr std::size_t kFeatures = 16;
constexpr std::size_t kClasses = 6;

/// IBk predict throughput recorded by bench_train_throughput in the PR 3
/// run that introduced the screened brute scan (BENCH_throughput.json,
/// same dataset shape and container class). The KD-tree index's headline
/// speedup is reported against this fixed reference, not the same-run
/// brute pass, so the JSON tracks the cross-PR trajectory.
constexpr double kPr3IbkBaselineRowsPerS = 11622.0;

/// Gaussian blobs in the thesis dataset's shape; deterministic in `seed`.
/// Same generator as bench_train_throughput so the rows/s numbers are
/// comparable across the two benches.
ml::Dataset synthetic_dataset(std::size_t rows, std::uint64_t seed) {
  std::vector<ml::Attribute> attrs;
  for (std::size_t f = 0; f < kFeatures; ++f)
    attrs.emplace_back("f" + std::to_string(f));
  std::vector<std::string> names;
  for (std::size_t c = 0; c < kClasses; ++c)
    names.push_back("c" + std::to_string(c));
  attrs.emplace_back("class", names);
  ml::Dataset data(std::move(attrs), "batch_scoring_blobs");
  Rng rng(seed);
  const std::size_t per_class = rows / kClasses;
  for (std::size_t c = 0; c < kClasses; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      ml::Instance row;
      for (std::size_t f = 0; f < kFeatures; ++f)
        row.values.push_back(
            rng.normal(2.0 * static_cast<double>((c + f) % kClasses), 1.5));
      row.values.push_back(static_cast<double>(c));
      data.add(std::move(row));
    }
  }
  return data;
}

// -- FNV-1a over prediction indices and distribution bit patterns, so
//    "bit_identical" below means exactly that.

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 1099511628211ull;
}

std::uint64_t fnv_double(std::uint64_t h, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  return fnv_mix(h, bits);
}

/// Scoring pass: fingerprint of every row's argmax + distribution bits
/// (computed outside the timed region), plus best-epoch throughput — one
/// pass is well under a millisecond on the GEMM paths, so single-shot
/// timing would be noise, and on a shared box even a long average
/// absorbs scheduler interference. Splitting the budget into epochs and
/// keeping the best one filters that interference the same way for every
/// measured path (best-of-N, applied symmetrically).
struct ScorePass {
  std::uint64_t fingerprint = kFnvOffset;
  double rows_per_s = 0.0;
};

double min_measure_seconds() {
  return static_cast<double>(env_or("HMD_BATCH_MIN_TIME_MS", 250)) / 1000.0;
}

template <typename Fn>
ScorePass run_pass(std::size_t rows, std::size_t k, const std::string& span,
                   Fn&& fill_out) {
  ScorePass pass;
  std::vector<double> out(rows * k);
  fill_out(out);  // warm-up; also the buffer that gets fingerprinted
  constexpr std::size_t kEpochs = 3;
  const double epoch_budget = min_measure_seconds() / kEpochs;
  double best = 0.0;
  TraceSpan t(span);
  for (std::size_t e = 0; e < kEpochs; ++e) {
    double total = 0.0;
    std::size_t reps = 0;
    do {
      const auto t0 = std::chrono::steady_clock::now();
      fill_out(out);
      total += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
      ++reps;
    } while (total < epoch_budget && reps < 10000);
    best = std::max(best, static_cast<double>(rows * reps) / total);
  }
  pass.rows_per_s = best;
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = out.data() + r * k;
    const std::size_t p =
        static_cast<std::size_t>(std::max_element(row, row + k) - row);
    pass.fingerprint = fnv_mix(pass.fingerprint, p);
    for (std::size_t c = 0; c < k; ++c)
      pass.fingerprint = fnv_double(pass.fingerprint, row[c]);
  }
  return pass;
}

ScorePass score_batch(const ml::Classifier& model,
                      const std::vector<double>& flat, std::size_t rows,
                      const std::string& span) {
  return run_pass(rows, model.num_classes(), span,
                  [&](std::vector<double>& out) {
                    model.distribution_batch(flat, kFeatures, out);
                  });
}

/// The pre-GEMM baseline: the Classifier base class's per-row fallback —
/// exactly what StreamEngine's one-call-per-batch contract resolved to
/// before the schemes gained real distribution_batch overrides.
ScorePass score_per_row(const ml::Classifier& model,
                        const std::vector<double>& flat, std::size_t rows,
                        const std::string& span) {
  return run_pass(rows, model.num_classes(), span,
                  [&](std::vector<double>& out) {
                    model.ml::Classifier::distribution_batch(flat, kFeatures,
                                                             out);
                  });
}

double accuracy_of(const ml::Classifier& model, const ml::DatasetView& test) {
  std::size_t hits = 0;
  for (std::size_t i = 0; i < test.num_instances(); ++i)
    hits += model.predict(test.features_of(i)) == test.class_of(i) ? 1 : 0;
  return static_cast<double>(hits) /
         static_cast<double>(test.num_instances());
}

/// Non-owning Classifier handle for QuantizedModel's shared_ptr ctor.
std::shared_ptr<const ml::Classifier> borrow(const ml::Classifier& c) {
  return {std::shared_ptr<void>(), &c};
}

struct KnnResult {
  double brute_rows_per_s = 0.0;
  double screened_rows_per_s = 0.0;
  double indexed_rows_per_s = 0.0;
  bool bit_identical = false;
  bool index_built = false;
};

struct GemmResult {
  std::string scheme;
  double per_row_rows_per_s = 0.0;
  double batch_rows_per_s = 0.0;
  bool bit_identical = false;
  double float_accuracy = 0.0;
  double q16_accuracy = 0.0;
};

/// Per-feature |x| bound over the scoring slice — the same calibration
/// hw/evaluate_fixed_point derives from its test set.
std::vector<double> absmax_of(const std::vector<double>& flat,
                              std::size_t rows) {
  std::vector<double> absmax(kFeatures, 0.0);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t f = 0; f < kFeatures; ++f)
      absmax[f] = std::max(absmax[f], std::abs(flat[r * kFeatures + f]));
  return absmax;
}

void write_json(const std::string& path, std::size_t rows,
                std::size_t train_rows, std::size_t predict_rows,
                const KnnResult& knn, double q16_knn_delta,
                const std::vector<GemmResult>& gemm) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"metadata\": " << bench::metadata_json("  ").substr(2) << ",\n"
      << "  \"rows\": " << rows << ",\n"
      << "  \"features\": " << kFeatures << ",\n"
      << "  \"classes\": " << kClasses << ",\n"
      << "  \"train_rows\": " << train_rows << ",\n"
      << "  \"predict_rows\": " << predict_rows << ",\n"
      << "  \"knn\": {\n"
      << "    \"brute_rows_per_s\": " << knn.brute_rows_per_s << ",\n"
      << "    \"screened_rows_per_s\": " << knn.screened_rows_per_s << ",\n"
      << "    \"indexed_rows_per_s\": " << knn.indexed_rows_per_s << ",\n"
      << "    \"speedup\": "
      << (knn.brute_rows_per_s > 0.0
              ? knn.indexed_rows_per_s / knn.brute_rows_per_s
              : 0.0)
      << ",\n"
      << "    \"speedup_vs_screened\": "
      << (knn.screened_rows_per_s > 0.0
              ? knn.indexed_rows_per_s / knn.screened_rows_per_s
              : 0.0)
      << ",\n"
      << "    \"bit_identical\": " << (knn.bit_identical ? "true" : "false")
      << ",\n"
      << "    \"index_built\": " << (knn.index_built ? "true" : "false")
      << ",\n"
      << "    \"pr3_baseline_rows_per_s\": " << kPr3IbkBaselineRowsPerS
      << ",\n"
      << "    \"speedup_vs_pr3\": "
      << knn.indexed_rows_per_s / kPr3IbkBaselineRowsPerS << ",\n"
      << "    \"q16_accuracy_delta\": " << q16_knn_delta << "\n"
      << "  },\n"
      << "  \"schemes\": {\n";
  for (std::size_t i = 0; i < gemm.size(); ++i) {
    const GemmResult& g = gemm[i];
    out << "    \"" << g.scheme << "\": {\n"
        << "      \"per_row_rows_per_s\": " << g.per_row_rows_per_s << ",\n"
        << "      \"batch_rows_per_s\": " << g.batch_rows_per_s << ",\n"
        << "      \"batch_speedup\": "
        << (g.per_row_rows_per_s > 0.0
                ? g.batch_rows_per_s / g.per_row_rows_per_s
                : 0.0)
        << ",\n"
        << "      \"bit_identical\": " << (g.bit_identical ? "true" : "false")
        << ",\n"
        << "      \"float_accuracy\": " << g.float_accuracy << ",\n"
        << "      \"q16_accuracy\": " << g.q16_accuracy << ",\n"
        << "      \"q16_accuracy_delta\": "
        << g.q16_accuracy - g.float_accuracy << "\n"
        << "    }" << (i + 1 < gemm.size() ? "," : "") << "\n";
  }
  out << "  }\n}\n";
}

}  // namespace

int main() {
  bench::init_observability();
  const std::size_t rows = env_or("HMD_BATCH_ROWS", 40000);
  const std::size_t predict_rows = env_or("HMD_BATCH_PREDICT", 4096);

  const ml::Dataset data = synthetic_dataset(rows, 7);
  Rng split_rng(42);
  const auto [train, test] = data.stratified_split(0.7, split_rng);
  const std::size_t score_rows =
      std::min(predict_rows, test.num_instances());
  std::vector<double> flat(score_rows * kFeatures);
  for (std::size_t r = 0; r < score_rows; ++r) {
    const auto x = test.features_of(r);
    std::copy(x.begin(), x.end(), flat.begin() + r * kFeatures);
  }
  std::fprintf(stderr,
               "[bench] batch scoring dataset: %zu rows (%zu train), "
               "%zu scored per pass, %zu features, %zu classes\n",
               data.num_instances(), train.num_instances(), score_rows,
               kFeatures, kClasses);

  // ---- IBk: plain brute scan vs int16-screened scan vs KD-tree index,
  //      same model, same rows. The brute pass caps its measured rows so
  //      a ~2 rows/ms linear scan cannot stall the bench; rows/s is
  //      row-count-invariant for a full scan, and the fingerprint check
  //      below still covers every scored row via the screened pass.
  KnnResult knn_result;
  {
    ml::Knn knn(5);
    knn.train(train);
    knn_result.index_built = knn.has_index();
    knn.set_index_enabled(false);
    knn.set_screen_enabled(false);
    const std::size_t brute_rows = std::min<std::size_t>(score_rows, 512);
    const std::vector<double> brute_flat(
        flat.begin(), flat.begin() + brute_rows * kFeatures);
    const ScorePass brute =
        score_batch(knn, brute_flat, brute_rows, "batch/IBk/brute");
    knn.set_screen_enabled(true);
    const ScorePass screened =
        score_batch(knn, flat, score_rows, "batch/IBk/screened");
    knn.set_index_enabled(true);
    const ScorePass indexed =
        score_batch(knn, flat, score_rows, "batch/IBk/indexed");
    // Reference fingerprint of the brute path over the full scoring slice
    // (one untimed pass — the timed brute pass covers a prefix).
    knn.set_index_enabled(false);
    knn.set_screen_enabled(false);
    std::vector<double> ref(score_rows * knn.num_classes());
    knn.distribution_batch(flat, kFeatures, ref);
    std::uint64_t ref_fp = kFnvOffset;
    for (std::size_t r = 0; r < score_rows; ++r) {
      const double* row = ref.data() + r * knn.num_classes();
      const std::size_t p = static_cast<std::size_t>(
          std::max_element(row, row + knn.num_classes()) - row);
      ref_fp = fnv_mix(ref_fp, p);
      for (std::size_t c = 0; c < knn.num_classes(); ++c)
        ref_fp = fnv_double(ref_fp, row[c]);
    }
    knn_result.brute_rows_per_s = brute.rows_per_s;
    knn_result.screened_rows_per_s = screened.rows_per_s;
    knn_result.indexed_rows_per_s = indexed.rows_per_s;
    knn_result.bit_identical =
        ref_fp == screened.fingerprint && ref_fp == indexed.fingerprint;
    std::fprintf(stderr,
                 "[bench] batch IBk  brute %9.0f rows/s | screened %9.0f "
                 "rows/s | indexed %9.0f rows/s | speedup %5.1fx "
                 "(vs screened %4.1fx) | bit_identical=%s\n",
                 brute.rows_per_s, screened.rows_per_s, indexed.rows_per_s,
                 indexed.rows_per_s / brute.rows_per_s,
                 indexed.rows_per_s / screened.rows_per_s,
                 knn_result.bit_identical ? "yes" : "NO");
  }

  // ---- IBk q16 tier: accuracy under the hardware input grid.
  double q16_knn_delta = 0.0;
  {
    ml::Knn knn(5);
    knn.train(train);
    const double base = accuracy_of(knn, test);
    const ml::QuantizedModel q16(borrow(knn),
                                 ml::QuantizedModel::Mode::kQ16Input,
                                 absmax_of(flat, score_rows));
    q16_knn_delta = accuracy_of(q16, test) - base;
  }

  // ---- GEMM schemes + quantized tiers.
  using Factory = std::unique_ptr<ml::Classifier> (*)();
  const std::vector<std::pair<std::string, Factory>> schemes = {
      {"MLR", +[]() -> std::unique_ptr<ml::Classifier> {
         return std::make_unique<ml::Logistic>(
             ml::Logistic::Params{.iterations = 100});
       }},
      {"SVM", +[]() -> std::unique_ptr<ml::Classifier> {
         return std::make_unique<ml::LinearSvm>();
       }},
      {"MLP", +[]() -> std::unique_ptr<ml::Classifier> {
         return std::make_unique<ml::Mlp>(ml::Mlp::Params{.epochs = 6});
       }},
  };

  std::vector<GemmResult> gemm_results;
  for (const auto& [scheme, make] : schemes) {
    GemmResult g;
    g.scheme = scheme;
    const std::unique_ptr<ml::Classifier> model = make();
    model->train(train);

    const ScorePass per_row =
        score_per_row(*model, flat, score_rows, "batch/" + scheme + "/row");
    const ScorePass batch =
        score_batch(*model, flat, score_rows, "batch/" + scheme + "/batch");
    g.per_row_rows_per_s = per_row.rows_per_s;
    g.batch_rows_per_s = batch.rows_per_s;
    g.bit_identical = per_row.fingerprint == batch.fingerprint;
    g.float_accuracy = accuracy_of(*model, test);

    const ml::QuantizedModel q16(borrow(*model),
                                 ml::QuantizedModel::Mode::kQ16Input);
    g.q16_accuracy = accuracy_of(q16, test);

    std::fprintf(stderr,
                 "[bench] batch %-4s row %9.0f rows/s | batch %9.0f rows/s "
                 "| speedup %5.1fx | bit_identical=%s | acc %.4f q16 %+.4f\n",
                 scheme.c_str(), g.per_row_rows_per_s, g.batch_rows_per_s,
                 g.batch_rows_per_s / g.per_row_rows_per_s,
                 g.bit_identical ? "yes" : "NO", g.float_accuracy,
                 g.q16_accuracy - g.float_accuracy);
    gemm_results.push_back(std::move(g));
  }

  const std::string path = "BENCH_batch_scoring.json";
  write_json(path, data.num_instances(), train.num_instances(), score_rows,
             knn_result, q16_knn_delta, gemm_results);
  std::fprintf(stderr, "[bench] batch scoring results written to %s\n",
               path.c_str());

  // Fail loudly when a fast path diverges from its reference — CI treats a
  // non-zero exit as a regression.
  bool ok = knn_result.bit_identical;
  for (const GemmResult& g : gemm_results) ok = ok && g.bit_identical;
  if (!ok)
    std::fprintf(stderr,
                 "[bench] ERROR: a fast path is not bit-identical to its "
                 "reference\n");
  return ok ? 0 : 1;
}
