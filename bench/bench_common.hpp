// Shared infrastructure for the reproduction benches.
//
// Every bench binary regenerates one of the thesis's tables/figures. They
// all consume the same collected HPC dataset, which is built once and
// cached as CSV in ./hmd_bench_cache/ (keyed by the pipeline fingerprint),
// so running the whole bench suite costs one collection pass.
//
// Scale knobs (environment):
//   HMD_BENCH_SCALE    database scale factor vs Table 1 (default 0.30)
//   HMD_BENCH_WINDOWS  sampling windows per sample    (default 12)
// Set HMD_BENCH_SCALE=1.0 HMD_BENCH_WINDOWS=16 for the full paper-scale run
// (~49k rows; collection takes ~25 s once).
#pragma once

#include <cstddef>
#include <string>
#include <utility>

#include "core/dataset_builder.hpp"
#include "core/detector.hpp"
#include "core/feature_reduction.hpp"
#include "core/pipeline_config.hpp"
#include "ml/dataset.hpp"
#include "util/thread_pool.hpp"

namespace hmd::bench {

/// A count-valued environment knob: the variable's value as an unsigned
/// decimal, or `fallback` when it is unset or empty.
std::size_t env_size(const char* name, std::size_t fallback);

/// The bench pipeline configuration (env-scaled).
core::PipelineConfig bench_config();

/// The shared 6-class dataset (built once, then loaded from cache).
const ml::Dataset& multiclass_dataset();

/// Binary (benign/malware) view of the shared dataset.
const ml::Dataset& binary_dataset();

/// Deterministic 70/30 stratified splits of the shared datasets.
std::pair<const ml::Dataset&, const ml::Dataset&> multiclass_split();
std::pair<const ml::Dataset&, const ml::Dataset&> binary_split();

/// Feature reducer fitted on the multiclass TRAINING split.
const core::FeatureReducer& feature_reducer();

/// Prints the standard bench banner (dataset size, scale) and initializes
/// observability export (see init_observability).
void print_banner(const std::string& title);

/// Wires the process metrics/trace registries to the environment:
///   HMD_METRICS_OUT  write flat metrics JSON here at exit
///   HMD_TRACE_OUT    enable span collection; write Chrome trace JSON here
/// Idempotent; print_banner calls it, so every bench exports for free.
void init_observability();

/// The shared experiment pool all benches fan sweeps across, sized by
/// HMD_JOBS (default: hardware concurrency). Results are bit-identical to
/// serial runs — see util/thread_pool.hpp.
ThreadPool& bench_pool();

/// Provenance block for bench JSON outputs: git sha (GITHUB_SHA, else
/// `git rev-parse HEAD`), the active kernel ISA plus the CPU's SIMD
/// feature flags, and the core count. Returns a complete JSON object
/// (no trailing comma); `indent` prefixes every emitted line.
std::string metadata_json(const std::string& indent);

/// The Figs. 13-16 study: every binary-study classifier trained, evaluated
/// and synthesized at 16 (all), 8 and 4 (PCA-selected) features. Computed
/// once per bench process.
struct BinaryStudyResults {
  std::vector<core::BinaryStudyRow> full;  ///< 16 features
  std::vector<core::BinaryStudyRow> top8;  ///< PCA top-8
  std::vector<core::BinaryStudyRow> top4;  ///< PCA top-4
};
const BinaryStudyResults& binary_study_results();

}  // namespace hmd::bench
