// Corpus collection and the binary-study sweep: the workload, hwsim, perf,
// core, ml-training and hw layers.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "bench.hpp"
#include "core/dataset_builder.hpp"
#include "core/feature_reduction.hpp"
#include "hw/compile.hpp"
#include "hw/fixed_point_eval.hpp"
#include "hw/netlist_sim.hpp"
#include "hwsim/core.hpp"
#include "ml/quantized.hpp"
#include "ml/registry.hpp"
#include "perf/collector.hpp"
#include "util/rng.hpp"
#include "workload/sandbox.hpp"

namespace perfbench {

namespace {

// The corpus is the paper's fixed database: its seed and the sample-level
// train/test split do not depend on --seed, so accuracy, hardware cost and
// the held-out set are the same for every run of a workload. --seed drives
// the traffic (serve_phase.cpp) and which samples are re-collected below.
constexpr std::uint64_t kSplitSeed = 20170618;  // DAC'17
constexpr double kTestShare = 0.3;
constexpr std::size_t kRecheckSamples = 16;
/// Ops per generate/execute step of the traced probe: small enough to stay
/// in cache, as the collector's op-by-op stream does.
constexpr std::size_t kProbeChunkOps = 1000;
/// Timed set-ups (pool start + database generation) per round; the
/// median is kept.
constexpr int kSetupRepeats = 9;

/// Collects one sample the way DatasetBuilder does: a fresh sandbox, the
/// collector seeded from the record, on `core` (fresh, miniature).
std::vector<perf::HpcSample> collect_sample(const core::PipelineConfig& cfg,
                                            const workload::SampleRecord& rec,
                                            hwsim::Core& core) {
  workload::Sandbox sandbox(rec, cfg.sandbox);
  const perf::HpcCollector collector(cfg.collector);
  return collector.collect(core, sandbox, rec.seed ^ 0xab5e11);
}

hwsim::Core miniature_core() {
  return hwsim::Core(hwsim::CoreConfig{}, hwsim::MemoryHierarchy::miniature());
}

/// True when `windows` equal the feature rows of sample `sample` in `data`
/// bit for bit.
bool sample_rows_equal(const ml::Dataset& data, std::size_t sample,
                       std::size_t windows_per_sample,
                       const std::vector<perf::HpcSample>& windows) {
  const std::size_t first = sample * windows_per_sample;
  if (windows.size() != windows_per_sample ||
      first + windows.size() > data.num_instances())
    return false;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const auto row = data.features_of(first + w);
    const auto& counts = windows[w].counts;
    if (row.size() != counts.size() ||
        std::memcmp(row.data(), counts.data(), row.size() * sizeof(double)))
      return false;
  }
  return true;
}

bool datasets_equal(const ml::Dataset& a, const ml::Dataset& b) {
  if (a.num_instances() != b.num_instances() ||
      a.num_attributes() != b.num_attributes())
    return false;
  for (std::size_t i = 0; i < a.num_instances(); ++i) {
    const auto ra = a.row(i);
    const auto rb = b.row(i);
    if (std::memcmp(ra.data(), rb.data(), ra.size() * sizeof(double)))
      return false;
  }
  return true;
}

/// Stratified sample-level split with a fixed seed.
void split_by_sample(Corpus& c) {
  const auto& samples = c.db.samples();
  const std::size_t w = c.config.collector.num_windows;
  std::vector<char> held_out(samples.size(), 0);
  Rng rng(kSplitSeed);
  for (workload::AppClass cls : workload::all_app_classes()) {
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < samples.size(); ++i)
      if (samples[i].label == cls) members.push_back(i);
    rng.shuffle(members);
    const auto n_test = static_cast<std::size_t>(
        std::ceil(kTestShare * static_cast<double>(members.size())));
    for (std::size_t k = 0; k < n_test && k < members.size(); ++k)
      held_out[members[k]] = 1;
  }
  std::vector<std::size_t> train_rows, test_rows;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (held_out[i]) c.test_samples.push_back(i);
    auto& rows = held_out[i] ? test_rows : train_rows;
    for (std::size_t k = 0; k < w; ++k) rows.push_back(i * w + k);
  }
  const ml::Dataset binary = core::DatasetBuilder::to_binary(c.multiclass);
  c.train_multi = ml::DatasetView(c.multiclass, train_rows).materialize();
  c.train_bin = ml::DatasetView(binary, train_rows).materialize();
  c.test_bin = ml::DatasetView(binary, test_rows).materialize();
}

/// Serial re-collection of a seeded subset (see make_corpus).
void recheck_subset(Run& run, const Corpus& c) {
  const auto& samples = c.db.samples();
  const std::size_t w = c.config.collector.num_windows;
  std::vector<std::size_t> subset(samples.size());
  for (std::size_t i = 0; i < subset.size(); ++i) subset[i] = i;
  Rng rng(run.seed ^ 0x5ec011ec7ull);
  rng.shuffle(subset);
  subset.resize(std::min(kRecheckSamples, subset.size()));

  const std::size_t ops =
      (c.config.collector.warmup_windows + c.config.collector.num_windows) *
      c.config.collector.ops_per_window;
  double gen_s = 0.0, exec_s = 0.0, collect_s = 0.0;
  std::vector<std::uint64_t> pmu(hwsim::kNumEvents, 0);
  std::uint64_t instructions = 0, cycles = 0;
  std::vector<hwsim::MicroOp> buffer(kProbeChunkOps);
  for (std::size_t i : subset) {
    const workload::SampleRecord& rec = samples[i];
    if (run.trace) {
      workload::Sandbox sandbox(rec, c.config.sandbox);
      hwsim::Core core = miniature_core();
      for (std::size_t done = 0; done < ops; done += buffer.size()) {
        const auto t0 = Clock::now();
        for (hwsim::MicroOp& op : buffer) op = sandbox.next();
        const auto t1 = Clock::now();
        core.execute(std::span<const hwsim::MicroOp>(buffer));
        gen_s += seconds_between(t0, t1);
        exec_s += seconds_between(t1, Clock::now());
      }
    }
    hwsim::Core core = miniature_core();
    const auto t0 = Clock::now();
    const auto windows = collect_sample(c.config, rec, core);
    collect_s += seconds_between(t0, Clock::now());
    run.checks.expect(sample_rows_equal(c.multiclass, i, w, windows),
                      "serial re-collection of sample " + rec.id +
                          " equals the pooled collection");
    for (std::size_t e = 0; e < hwsim::kNumEvents; ++e)
      pmu[e] += core.pmu().true_count(static_cast<hwsim::HwEvent>(e));
    instructions += core.instructions();
    cycles += core.cycles();
  }
  if (!run.trace) return;

  const auto count = [&](hwsim::HwEvent e) {
    return static_cast<double>(pmu[static_cast<std::size_t>(e)]);
  };
  const double total_ops = static_cast<double>(ops * subset.size());
  run.layer("workload.ops_per_s", total_ops / gen_s, "1/s",
            "Sandbox::next into a buffer");
  run.layer("hwsim.ops_per_s", total_ops / exec_s, "1/s",
            "Core::execute(span) on that buffer");
  run.layer("hwsim.ipc",
            static_cast<double>(instructions) / static_cast<double>(cycles),
            "ratio", "simulated, exact");
  run.layer("hwsim.l1d_miss_ratio",
            count(hwsim::HwEvent::kL1DcacheLoadMisses) /
                count(hwsim::HwEvent::kL1DcacheLoads),
            "ratio", "simulated, exact");
  run.layer("hwsim.llc_miss_ratio",
            count(hwsim::HwEvent::kLlcLoadMisses) /
                count(hwsim::HwEvent::kLlcLoads),
            "ratio", "simulated, exact");
  run.layer("hwsim.branch_miss_ratio",
            count(hwsim::HwEvent::kBranchMisses) /
                count(hwsim::HwEvent::kBranchInstructions),
            "ratio", "simulated, exact");
  run.layer("perf.self_share", (collect_s - gen_s - exec_s) / collect_s,
            "ratio", "collect time minus generation and execution");
}

}  // namespace

void Checks::expect(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "perfbench: MISMATCH: %s\n", what.c_str());
  }
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::logic_error("median of no values");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<float>& v, double q) {
  if (v.empty()) throw std::logic_error("quantile of no values");
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = rank == 0 ? 0 : rank - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

Collected collect(Run& run) {
  const core::DatasetBuilder builder(
      core::PipelineConfig::quick(run.spec.db_scale, kWindowsPerSample));
  Collected out;
  out.config = builder.config();
  // Set-up, a new pool and the database, takes under a millisecond at
  // these scales, so it is timed several times and its median kept. Each
  // repeat first stops the previous pool, untimed.
  std::vector<double> start_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    run.pool.reset();
    const auto t0 = Clock::now();
    if (run.threads > 1)
      run.pool = std::make_unique<ThreadPool>(run.threads - 1);
    out.db = workload::SampleDatabase::generate(out.config.composition,
                                                out.config.seed);
    start_s.push_back(seconds_between(t0, Clock::now()));
  }
  out.start_s = median(start_s);
  const auto t1 = Clock::now();
  const double cpu1 = process_cpu_seconds();
  out.multiclass = builder.build_multiclass_dataset({}, run.pool.get());
  out.collect_cpu_s = process_cpu_seconds() - cpu1;
  out.collect_s = seconds_between(t1, Clock::now());
  return out;
}

Corpus make_corpus(Run& run, Collected first) {
  Corpus c;
  c.config = std::move(first.config);
  c.db = std::move(first.db);
  c.multiclass = std::move(first.multiclass);
  run.checks.expect(c.multiclass.num_instances() ==
                        c.db.size() * c.config.collector.num_windows,
                    "every sample yields every window");
  recheck_subset(run, c);
  split_by_sample(c);
  return c;
}

void check_recollection(Run& run, const Corpus& c, const Collected& again) {
  run.checks.expect(datasets_equal(c.multiclass, again.multiclass),
                    "repeated collection is bit-identical");
}

void traced_collection(Run& run, const Corpus& c, double untraced_s) {
  Tracer& tr = run.tracer;
  const auto& samples = c.db.samples();
  const std::size_t n = samples.size();
  const std::size_t w = c.config.collector.num_windows;
  std::vector<char> same(n, 0);
  const int phase = tr.begin("phase.collect");
  parallel_for(run.pool.get(), n, [&](std::size_t i) {
    ScopedSpan span(&tr, "perf.collect", phase);
    hwsim::Core core = miniature_core();
    same[i] = sample_rows_equal(c.multiclass, i, w,
                                collect_sample(c.config, samples[i], core));
  });
  tr.end(phase);
  for (std::size_t i = 0; i < n; ++i)
    run.checks.expect(same[i] != 0, "traced collection of sample " +
                                        samples[i].id +
                                        " equals the pooled collection");
  const double wall = tr.duration(phase);
  const double busy = tr.children_total(phase, "perf.collect");
  run.layer("perf.collect_ms_per_sample", busy / static_cast<double>(n) * 1e3,
            "ms", "HpcCollector::collect, pooled");
  run.pool_busy_s += busy;
  run.pool_wall_s += wall * static_cast<double>(run.threads);
  run.phase_costs.push_back(
      {"collect", untraced_s, wall, tr.self_time(phase) / wall});
}

// ---- sweep -------------------------------------------------------------

Sweep run_sweep(Run& run, const Corpus& c, Tracer* tr) {
  std::vector<std::string> schemes = ml::binary_study_classifiers();

  Sweep out;
  const auto t0 = Clock::now();
  const double cpu0 = process_cpu_seconds();
  ScopedSpan phase(tr, "phase.train");
  out.phase = phase.id();
  std::vector<core::FeatureSet> reduced;
  {
    ScopedSpan span(tr, "core.pca", phase.id());
    const core::FeatureReducer reducer(c.train_multi);
    reduced.push_back(reducer.binary_top_features(8));
    reduced.push_back(reducer.binary_top_features(4));
  }

  const std::size_t d = c.train_bin.num_features();
  out.models16.resize(schemes.size());
  out.rows.resize(schemes.size());
  {
    ScopedSpan fan(tr, "core.sweep16", phase.id());
    out.fan = fan.id();
    parallel_for(run.pool.get(), schemes.size(), [&](std::size_t k) {
      const std::string& scheme = schemes[k];
      core::BinaryStudyRow& row = out.rows[k];
      {
        ScopedSpan span(tr, "ml.train." + scheme, fan.id());
        core::TrainedModel tm =
            core::train_and_evaluate(scheme, c.train_bin, c.test_bin);
        out.models16[k] = std::move(tm.model);
        row.report = std::move(tm.evaluation);
      }
      row.scheme = scheme;
      row.num_features = d;
      if (ml::is_rtl_scheme(scheme)) {
        ScopedSpan span(tr, "hw.compile", fan.id());
        hw::CompileOptions opts;
        opts.num_features = d;
        row.synthesis = hw::compile(*out.models16[k], std::move(opts)).report();
      }
    });
  }
  const core::BinaryStudy study(c.train_bin, c.test_bin);
  for (const core::FeatureSet& fs : reduced) {
    ScopedSpan span(tr, "core.binary_study", phase.id());
    for (core::BinaryStudyRow& row :
         study.run(ml::binary_study_classifiers(), &fs, run.pool.get()))
      out.rows.push_back(std::move(row));
  }
  out.schemes16 = std::move(schemes);
  out.cpu_s = process_cpu_seconds() - cpu0;
  out.seconds = seconds_between(t0, Clock::now());
  return out;
}

const ml::Classifier& Sweep::model(const std::string& scheme) const {
  for (std::size_t k = 0; k < schemes16.size(); ++k)
    if (schemes16[k] == scheme) return *models16[k];
  throw std::runtime_error("scheme not trained: " + scheme);
}

void check_sweep(Run& run, const Sweep& first, const Sweep& again) {
  bool same = first.rows.size() == again.rows.size();
  for (std::size_t i = 0; same && i < first.rows.size(); ++i) {
    const core::BinaryStudyRow& a = first.rows[i];
    const core::BinaryStudyRow& b = again.rows[i];
    same = a.scheme == b.scheme && a.accuracy() == b.accuracy() &&
           a.synthesis.area_slices() == b.synthesis.area_slices() &&
           a.synthesis.latency_cycles == b.synthesis.latency_cycles;
  }
  run.checks.expect(same, "repeated sweep is bit-identical");
}

void sweep_metrics(Run& run, const Sweep& s) {
  double acc = 0.0, area = 0.0, cycles = 0.0;
  for (const core::BinaryStudyRow& row : s.rows) {
    acc += row.accuracy();
    area += row.synthesis.area_slices();
    cycles += row.synthesis.latency_cycles;
  }
  run.e2e("accuracy_mean", acc / static_cast<double>(s.rows.size()), "ratio",
          "mean test accuracy over " + std::to_string(s.rows.size()) +
              " sweep rows");
  run.e2e("hw_area", area, "slices", "summed netlist area");
  run.e2e("hw_latency_cycles", cycles, "cycles",
          "summed netlist critical path");
}

void sweep_layers(Run& run, const Sweep& traced, double untraced_s) {
  const Tracer& tr = run.tracer;
  run.layer("core.pca_ms", tr.children_total(traced.phase, "core.pca") * 1e3,
            "ms", "FeatureReducer construction + top-8/top-4 ranking");
  for (const std::string& scheme : ml::binary_study_classifiers())
    run.layer("ml.train_ms." + scheme,
              tr.children_total(traced.fan, "ml.train." + scheme) * 1e3, "ms",
              "train_and_evaluate at 16 features");
  run.layer("hw.compile_ms", tr.children_total(traced.fan, "hw.compile") * 1e3,
            "ms", "hw::compile over the RTL schemes");
  run.pool_busy_s += tr.children_total(traced.fan, "");
  run.pool_wall_s += tr.duration(traced.fan) * static_cast<double>(run.threads);
  const double wall = tr.duration(traced.phase);
  run.phase_costs.push_back(
      {"train", untraced_s, wall, tr.self_time(traced.phase) / wall});
}

void check_netlists(Run& run, const Corpus& c, const Sweep& s) {
  const ml::Dataset& test = c.test_bin;
  const std::vector<double> absmax = hw::calibrate_feature_absmax(test);
  for (const std::string& scheme : ml::rtl_exact_schemes()) {
    const auto it = std::find(s.schemes16.begin(), s.schemes16.end(), scheme);
    if (it == s.schemes16.end()) continue;
    const ml::Classifier& model = s.model(scheme);
    hw::CompileOptions opts;
    opts.num_features = test.num_features();
    opts.feature_absmax = absmax;
    const hw::CompiledDesign design = hw::compile(model, std::move(opts));
    const hw::NetlistSimulator sim(design);
    // Per row: the float model on the same Q16.16 input grid. In
    // aggregate: hw::evaluate_fixed_point's confusion matrix.
    const ml::QuantizedModel grid(
        std::shared_ptr<const ml::Classifier>(
            std::shared_ptr<const ml::Classifier>(), &model),
        ml::QuantizedModel::Mode::kQ16Input, absmax);
    const ml::EvaluationReport reference =
        hw::evaluate_fixed_point(model, test);
    ml::EvaluationReport netlist;
    netlist.result = ml::EvaluationResult(test.num_classes(),
                                          test.class_attribute().values());
    bool same = true;
    for (std::size_t i = 0; i < test.num_instances(); ++i) {
      const std::size_t decision = sim.run(test.features_of(i));
      netlist.record(test.class_of(i), decision);
      same = same && decision == grid.predict(test.features_of(i));
    }
    for (std::size_t a = 0; a < test.num_classes(); ++a)
      for (std::size_t p = 0; p < test.num_classes(); ++p)
        same = same && netlist.confusion(a, p) == reference.confusion(a, p);
    run.checks.expect(same, "netlist decisions of " + scheme +
                                " equal the fixed-point reference");
  }
}

}  // namespace perfbench
