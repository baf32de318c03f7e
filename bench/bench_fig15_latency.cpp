// Figure 15: Latency comparison — per-inference latency of each
// classifier's hardware implementation (cycles and µs at the 100 MHz HLS
// target clock), at 16/8/4 features. Paper shape: trees/rules classify in a
// few cycles; the MLP's MAC layers take an order of magnitude longer.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench/bench_common.hpp"
#include "hw/compile.hpp"
#include "ml/registry.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace hmd;

/// The 16-feature MLP of the main table's cycles(16) column.
hw::CompiledDesign compile_mlp() {
  const auto& [train, test] = bench::binary_split();
  (void)test;
  auto mlp = ml::make_classifier("MLP");
  mlp->train(train);
  return hw::compile(*mlp, {.num_features = train.num_features()});
}

void print_fig15() {
  bench::print_banner("Figure 15: Latency comparison (100 MHz target)");
  const bench::BinaryStudyResults& r = bench::binary_study_results();

  TextTable table("latency vs number of features");
  table.set_header({"classifier", "cycles(16)", "cycles(8)", "cycles(4)",
                    "us(16)"});
  for (std::size_t i = 0; i < r.full.size(); ++i) {
    table.add_row({r.full[i].scheme,
                   std::to_string(r.full[i].synthesis.latency_cycles),
                   std::to_string(r.top8[i].synthesis.latency_cycles),
                   std::to_string(r.top4[i].synthesis.latency_cycles),
                   format("%.2f", r.full[i].synthesis.latency_us())});
  }
  table.print(std::cout);
}

void BM_CriticalPath(benchmark::State& state) {
  const hw::CompiledDesign mlp = compile_mlp();
  for (auto _ : state) {
    auto cycles = mlp.netlist().latency_cycles();
    benchmark::DoNotOptimize(cycles);
  }
}
BENCHMARK(BM_CriticalPath)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_fig15();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
