// Shared declarations of the repository benchmark (see README.md).
//
// Every workload runs the same chain through the libraries' public calls:
//
//   workload::SampleDatabase::generate
//   core::DatasetBuilder::build_multiclass_dataset  (Sandbox -> hwsim::Core
//                                                    -> perf::HpcCollector)
//   core::FeatureReducer, core::BinaryStudy::run,
//   core::train_and_evaluate, hw::compile            (the Figs. 13-16 sweep)
//   serve::StreamEngine::{ingest,drain}              (closed + open loop)
//   ml::Classifier::distribution_batch, core::OnlineDetector
//
// in rounds: each round collects, sweeps and serves once, and every
// reported time is the median over the rounds, so one slow stretch of the
// host moves a single round, not the result. The workload spec decides how
// much work each layer gets.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/online_detector.hpp"
#include "core/pipeline_config.hpp"
#include "ml/dataset.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"
#include "workload/sample_database.hpp"

namespace perfbench {

using namespace hmd;

/// One workload: the input sizes of every layer, and why it exists.
struct WorkloadSpec {
  std::string name;
  /// Which layers the workload loads; printed with every run.
  std::string why;

  /// Corpus: the Table 1 database at this scale, 12 windows of 3000
  /// simulated ops per sample.
  double db_scale = 0.1;
  /// True when collection and sweep are set-up for serving (serve_mlr);
  /// false when they are the workload's measured phases (study).
  bool collect_and_train_are_setup = true;

  /// Share of --seconds given to serving (30 % closed, 70 % open loop).
  double serve_share = 1.0;
  /// Rounds per run; every reported time is the median over them.
  int rounds = 7;
};

/// Serving is the same in every workload: the sweep's MLR model, trained
/// at 16 features, serves kStreams streams, all sampled on the same tick.
/// The open loop runs at kNominalWps, about a quarter of the closed-loop
/// rate on a 4-vCPU x86 host: a tick every kStreams / kNominalWps s.
inline constexpr const char* kServedScheme = "MLR";
inline constexpr std::size_t kStreams = 4096;
inline constexpr double kNominalWps = 600000.0;

/// Windows per sample in every corpus.
inline constexpr std::size_t kWindowsPerSample = 12;
/// Shard workers of every engine (fewer when nproc - 2 is smaller).
inline constexpr std::size_t kShards = 2;

/// The alarm policy of every served stream: sensitive enough that benign
/// streams raise false alarms too (the repo default raises none on these
/// corpora, and a rate that is always 0 cannot regress visibly).
inline core::OnlineDetectorConfig alarm_policy() {
  core::OnlineDetectorConfig policy;
  policy.flag_threshold = 0.7;
  policy.confirm_windows = 3;
  return policy;
}

/// p99_us is the exact p99 of each interval of whole ticks, the fewest
/// that hold kLatencyIntervalWindows windows (so p99 has 10 samples beyond
/// it), reported as the median over all intervals of all rounds: the tail
/// of a typical tick. A host preemption of a few milliseconds then inflates
/// a few intervals instead of the result. Across runs of one build on a
/// shared 4-vCPU host, the whole-round p99 had quartile spreads of 0.41 of
/// its median on serve_mlr (up to 0.66 on an IBk workload), so it cannot
/// carry a bound of at most 0.25. p50_us is exact over each
/// round's open loop.
inline constexpr std::size_t kLatencyIntervalWindows = 1000;

/// One named metric with its unit; `note` is printed beside it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

/// Correctness bookkeeping: every checked item counts as attempted; every
/// mismatch as failed, with a message on stderr.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void expect(bool ok, const std::string& what);
};

/// Per-run context shared by the phases.
struct Run {
  WorkloadSpec spec;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  Tracer tracer;  ///< used only by the traced round
  /// Busy threads of every phase: nproc - 1, leaving one core to the rest
  /// of the system. Pool fan-outs run `threads - 1` helpers plus the
  /// caller; serving runs the generator plus `threads - 1` shards.
  std::size_t threads = 1;
  std::unique_ptr<ThreadPool> pool;  ///< null when threads == 1
  Checks checks;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Task time and capacity (threads x wall) of the traced pooled phases,
  /// for util.pool_busy_share.
  double pool_busy_s = 0.0;
  double pool_wall_s = 0.0;
  /// Per timed phase: untraced median and traced time (trace.overhead),
  /// and the traced unattributed share.
  struct PhaseCost {
    std::string phase;
    double untraced = 0.0;
    double traced = 0.0;
    double unattributed = 0.0;
  };
  std::vector<PhaseCost> phase_costs;

  Run(WorkloadSpec s, std::uint64_t seed_, double seconds_, bool trace_)
      : spec(std::move(s)), seed(seed_), seconds(seconds_), trace(trace_) {}

  void e2e(std::string name, double value, std::string unit,
           std::string note = "") {
    end_to_end.push_back(
        {std::move(name), value, std::move(unit), std::move(note)});
  }
  void layer(std::string name, double value, std::string unit,
             std::string note = "") {
    per_layer.push_back(
        {std::move(name), value, std::move(unit), std::move(note)});
  }
};

/// Median of a non-empty sample.
double median(std::vector<double> v);
/// Exact quantile (nearest rank) of a non-empty sample; reorders `v`.
double quantile(std::vector<float>& v, double q);

// ---- corpus and sweep (chain.cpp) -------------------------------------

/// The collected corpus, split by sample (never by window) so that every
/// held-out sample is unseen by training.
struct Corpus {
  core::PipelineConfig config;
  workload::SampleDatabase db;
  ml::Dataset multiclass;  ///< database order, config windows per sample
  ml::Dataset train_multi;
  ml::Dataset train_bin;
  ml::Dataset test_bin;
  std::vector<std::size_t> test_samples;  ///< held-out database indices
};

/// One set-up pass, timed: a new pool and the database, then its pooled
/// collection.
struct Collected {
  core::PipelineConfig config;
  workload::SampleDatabase db;
  ml::Dataset multiclass;
  double start_s = 0.0;  ///< median pool start + database generation
  double collect_s = 0.0;      ///< wall
  double collect_cpu_s = 0.0;  ///< CPU time of every thread
};
Collected collect(Run& run);
/// Splits the first collection and re-collects a seeded subset of samples
/// serially, requiring bit-identical rows. Traced runs also time the
/// subset's op generation and execution apart and read the simulated PMU.
Corpus make_corpus(Run& run, Collected first);
/// Requires a later round's collection to equal the corpus bit for bit.
void check_recollection(Run& run, const Corpus& c, const Collected& again);
/// The traced collection round (per-sample spans); per-layer metrics.
void traced_collection(Run& run, const Corpus& c, double untraced_s);

/// The sweep's 21 rows (7 schemes x {16, 8, 4} features) and its trained
/// 16-feature models, the served one among them.
struct Sweep {
  std::vector<core::BinaryStudyRow> rows;
  std::vector<std::string> schemes16;
  std::vector<std::unique_ptr<ml::Classifier>> models16;
  double seconds = 0.0;  ///< wall
  double cpu_s = 0.0;    ///< CPU time of every thread
  int phase = Tracer::kNoParent;  ///< span ids when traced
  int fan = Tracer::kNoParent;
  const ml::Classifier& model(const std::string& scheme) const;
};
/// PCA ranking, BinaryStudy::run at 8 and 4 features, and at 16 features
/// train_and_evaluate + hw::compile per scheme.
Sweep run_sweep(Run& run, const Corpus& c, Tracer* tr);
/// Requires a later round's sweep to equal the first bit for bit.
void check_sweep(Run& run, const Sweep& first, const Sweep& again);
/// accuracy_mean, hw_area, hw_latency_cycles.
void sweep_metrics(Run& run, const Sweep& s);
/// Per-layer metrics of the traced sweep.
void sweep_layers(Run& run, const Sweep& traced, double untraced_s);
/// The exact-RTL schemes' netlists must decide every held-out window as
/// the fixed-point reference does.
void check_netlists(Run& run, const Corpus& c, const Sweep& s);

// ---- serving (serve_phase.cpp) ----------------------------------------

struct ClosedLoop {
  double wps = 0.0;             ///< windows scored per second
  double engine_start_s = 0.0;  ///< engine construction + registration
};

struct OpenLoop {
  std::vector<float> latency_us;  ///< per window, due time to scored
  std::size_t malware = 0, detected = 0, benign = 0, false_alarms = 0;
  double alarm_windows = 0.0;  ///< summed over detected streams
};

/// Serves one trained model to the workload's streams, one fresh engine
/// per phase. Every phase checks every stream against a serial
/// OnlineDetector replay of the same windows.
class Server {
 public:
  Server(Run& run, const Corpus& c, const ml::Classifier& model);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Saturating closed loop for `seconds`. Traced runs also record the
  /// serve/ml/core per-layer metrics, against the untraced median time
  /// per window.
  ClosedLoop closed_loop(double seconds, bool traced,
                         double untraced_s_per_window = 0.0);
  /// Open loop at the nominal rate for about `seconds`.
  OpenLoop open_loop(double seconds, bool traced);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace perfbench
