// Figure 13: Accuracy comparison for binary (malware vs benign)
// classification — each classifier at 16 (all), 8 and 4 PCA-selected
// features. Paper shape: most classifiers lose accuracy with fewer
// features, while J48/OneR barely move.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench/bench_common.hpp"
#include "ml/mlp.hpp"
#include "ml/registry.hpp"
#include "tests/ml/synthetic_data.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/trace.hpp"

namespace {

using namespace hmd;

/// Times the Fig. 13 classifier sweep serial vs pooled and logs the
/// wall-clock speedup (the parallel engine's acceptance metric; expect
/// >= 3x on a 4+-core machine, bounded by the slowest scheme, MLP).
void log_sweep_speedup() {
  const auto& [train, test] = bench::binary_split();
  const core::BinaryStudy study(train, test);
  const auto schemes = ml::binary_study_classifiers();
  ThreadPool& pool = bench::bench_pool();

  const auto time_run = [&](ThreadPool* p) {
    TraceSpan timer(p == nullptr ? "fig13/sweep_serial"
                                 : "fig13/sweep_parallel");
    const auto rows = study.run(schemes, nullptr, p);
    return std::pair{timer.elapsed_seconds(), rows};
  };
  const auto [serial_s, serial_rows] = time_run(nullptr);
  const auto [parallel_s, parallel_rows] = time_run(&pool);

  bool identical = serial_rows.size() == parallel_rows.size();
  for (std::size_t i = 0; identical && i < serial_rows.size(); ++i)
    identical = serial_rows[i].scheme == parallel_rows[i].scheme &&
                serial_rows[i].accuracy() == parallel_rows[i].accuracy();
  std::fprintf(stderr,
               "[bench] fig13 sweep: serial %.2f s, %zu jobs %.2f s -> "
               "%.2fx speedup, results %s\n",
               serial_s, pool.size(), parallel_s,
               parallel_s > 0.0 ? serial_s / parallel_s : 0.0,
               identical ? "bit-identical" : "DIVERGED");
}

void print_fig13() {
  bench::print_banner("Figure 13: Binary classification accuracy");
  const bench::BinaryStudyResults& r = bench::binary_study_results();

  TextTable table("accuracy (%) vs number of features");
  table.set_header({"classifier", "16 features", "8 features", "4 features",
                    "drop 16->4 (pp)"});
  for (std::size_t i = 0; i < r.full.size(); ++i) {
    table.add_row(
        {r.full[i].scheme, format("%.2f", r.full[i].accuracy() * 100.0),
         format("%.2f", r.top8[i].accuracy() * 100.0),
         format("%.2f", r.top4[i].accuracy() * 100.0),
         format("%+.2f",
                (r.top4[i].accuracy() - r.full[i].accuracy()) * 100.0)});
  }
  table.print(std::cout);
}

void BM_PredictThroughput(benchmark::State& state,
                          const std::string& scheme) {
  const auto& [train, test] = bench::binary_split();
  auto clf = ml::make_classifier(scheme);
  clf->train(train);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        clf->predict(test.features_of(i++ % test.num_instances())));
  }
}

void BM_TrainOneR(benchmark::State& state) {
  const auto& [train, test] = bench::binary_split();
  (void)test;
  for (auto _ : state) {
    auto clf = ml::make_classifier("OneR");
    clf->train(train);
    benchmark::DoNotOptimize(clf);
  }
}
BENCHMARK(BM_TrainOneR)->Unit(benchmark::kMillisecond);

/// Mlp::train on a fixed seeded binary set of the study's shape (7,736
/// rows, state.range(0) features, default 300 epochs): times the SGD
/// epoch kernel alone, without collecting the study's dataset.
void BM_TrainMlp(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  const ml::Dataset data = ml::testdata::blobs(2, d, 3868, 0.7, 1.5, 17);
  for (auto _ : state) {
    ml::Mlp mlp;
    mlp.train(data);
    benchmark::DoNotOptimize(mlp.w2().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.num_instances()) *
                          300);
}
BENCHMARK(BM_TrainMlp)->Arg(16)->Arg(8)->Arg(4)->Unit(
    benchmark::kMillisecond);

BENCHMARK_CAPTURE(BM_PredictThroughput, OneR, std::string("OneR"));
BENCHMARK_CAPTURE(BM_PredictThroughput, J48, std::string("J48"));
BENCHMARK_CAPTURE(BM_PredictThroughput, MLP, std::string("MLP"));

}  // namespace

int main(int argc, char** argv) {
  print_fig13();
  log_sweep_speedup();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
