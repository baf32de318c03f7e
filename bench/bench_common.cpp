#include "bench/bench_common.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "ml/kernels.hpp"
#include "ml/registry.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/trace.hpp"

namespace hmd::bench {

namespace {

/// Cache file format, part of the file name so that a cache written in an
/// older format is rebuilt rather than reused. v2: numeric cells carry 17
/// significant digits and reload bit-exactly (v1 rounded them to 6).
constexpr const char* kCacheFormat = "v2";

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return parse_double(v);
}

struct Splits {
  ml::Dataset multi_train, multi_test;
  ml::Dataset binary_train, binary_test;
};

const Splits& splits() {
  static const Splits s = [] {
    Rng rng(20180717);  // thesis defense summer 2018
    auto [mtrain, mtest] =
        multiclass_dataset().stratified_split(bench_config().train_fraction,
                                              rng);
    Rng rng2(20170618);  // DAC'17
    auto [btrain, btest] =
        binary_dataset().stratified_split(bench_config().train_fraction,
                                          rng2);
    return Splits{std::move(mtrain), std::move(mtest), std::move(btrain),
                  std::move(btest)};
  }();
  return s;
}

}  // namespace

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

core::PipelineConfig bench_config() {
  const double scale = env_double("HMD_BENCH_SCALE", 0.30);
  const auto windows =
      static_cast<std::size_t>(env_double("HMD_BENCH_WINDOWS", 12));
  core::PipelineConfig cfg;
  cfg.composition = workload::DatabaseComposition::scaled(scale);
  cfg.collector.num_windows = windows;
  cfg.collector.ops_per_window = 3000;
  return cfg;
}

const ml::Dataset& multiclass_dataset() {
  static const ml::Dataset data = [] {
    const core::PipelineConfig cfg = bench_config();
    std::filesystem::create_directories("hmd_bench_cache");
    const std::string path = "hmd_bench_cache/" + cfg.cache_key() + "." +
                             kCacheFormat + ".csv";
    core::DatasetBuilder builder(cfg);
    if (!std::filesystem::exists(path))
      std::fprintf(stderr,
                   "[bench] collecting HPC dataset (%zu samples x %zu "
                   "windows, %zu jobs) -> %s\n",
                   cfg.composition.total(), cfg.collector.num_windows,
                   bench_pool().size(), path.c_str());
    // Collection fans per-sample simulation across the pool; the cached
    // CSV is bit-identical to a serial build (see DatasetBuilder).
    return builder.load_or_build(path, &bench_pool());
  }();
  return data;
}

const ml::Dataset& binary_dataset() {
  static const ml::Dataset data =
      core::DatasetBuilder::to_binary(multiclass_dataset());
  return data;
}

std::pair<const ml::Dataset&, const ml::Dataset&> multiclass_split() {
  return {splits().multi_train, splits().multi_test};
}

std::pair<const ml::Dataset&, const ml::Dataset&> binary_split() {
  return {splits().binary_train, splits().binary_test};
}

const core::FeatureReducer& feature_reducer() {
  static const core::FeatureReducer reducer(splits().multi_train);
  return reducer;
}

ThreadPool& bench_pool() { return global_pool(); }

namespace {

/// Commit under bench: CI exports GITHUB_SHA; locally ask git. Either can
/// be missing (tarball checkout) — then "unknown".
std::string git_sha() {
  if (const char* sha = std::getenv("GITHUB_SHA");
      sha != nullptr && *sha != '\0')
    return sha;
  std::string sha;
  if (FILE* p = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof buf, p) != nullptr) sha = buf;
    ::pclose(p);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
    sha.pop_back();
  return sha.empty() ? "unknown" : sha;
}

}  // namespace

std::string metadata_json(const std::string& indent) {
  const bool avx2 = ml::kernels::isa_supported(ml::kernels::Isa::kAvx2);
  const bool avx512 = ml::kernels::isa_supported(ml::kernels::Isa::kAvx512);
  std::string out;
  out += indent + "{\n";
  out += indent + "  \"git_sha\": \"" + git_sha() + "\",\n";
  out += indent + "  \"kernel_isa\": \"" +
         ml::kernels::to_string(ml::kernels::active_isa()) + "\",\n";
  out += indent + "  \"cpu_flags\": {\"avx2\": " +
         (avx2 ? "true" : "false") + ", \"avx512\": " +
         (avx512 ? "true" : "false") + "},\n";
  out += indent + "  \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency()) + "\n";
  out += indent + "}";
  return out;
}

const BinaryStudyResults& binary_study_results() {
  static const BinaryStudyResults results = [] {
    const auto& [train, test] = binary_split();
    const core::BinaryStudy study(train, test);
    const auto schemes = ml::binary_study_classifiers();
    const core::FeatureSet top8 = feature_reducer().binary_top_features(8);
    const core::FeatureSet top4 = feature_reducer().binary_top_features(4);
    ThreadPool& pool = bench_pool();
    std::fprintf(stderr,
                 "[bench] training %zu classifiers x 3 feature sets "
                 "(%zu jobs)\n",
                 schemes.size(), pool.size());
    TraceSpan sweep("bench/binary_study");
    BinaryStudyResults r{study.run(schemes, nullptr, &pool),
                         study.run(schemes, &top8, &pool),
                         study.run(schemes, &top4, &pool)};
    std::fprintf(stderr, "[bench] classifier sweep took %.2f s\n",
                 sweep.elapsed_seconds());
    return r;
  }();
  return results;
}

void init_observability() {
  static const bool initialized = [] {
    const char* metrics_out = std::getenv("HMD_METRICS_OUT");
    const char* trace_out = std::getenv("HMD_TRACE_OUT");
    if (trace_out != nullptr && *trace_out != '\0')
      tracer().set_enabled(true);
    if ((metrics_out != nullptr && *metrics_out != '\0') ||
        (trace_out != nullptr && *trace_out != '\0')) {
      std::atexit([] {
        if (const char* path = std::getenv("HMD_METRICS_OUT");
            path != nullptr && *path != '\0') {
          std::ofstream out(path);
          metrics().write_json(out);
        }
        if (const char* path = std::getenv("HMD_TRACE_OUT");
            path != nullptr && *path != '\0') {
          std::ofstream out(path);
          tracer().write_chrome_json(out);
        }
      });
    }
    return true;
  }();
  (void)initialized;
}

void print_banner(const std::string& title) {
  init_observability();
  const auto& d = multiclass_dataset();
  std::printf("==========================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("dataset: %zu windows x %zu counters, %zu samples, "
              "70/30 split\n",
              d.num_instances(), d.num_features(),
              bench_config().composition.total());
  std::printf("==========================================================\n");
}

}  // namespace hmd::bench
