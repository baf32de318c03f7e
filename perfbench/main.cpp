// hmd_perfbench: runs one named workload of the repository benchmark.
//
//   hmd_perfbench --workload <study|serve_mlr> --seed <n>
//                 --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Prints every metric as "name = value unit  # note" and, as the last line,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// A traced run makes the untraced rounds too, then one traced round whose
// spans it writes to --trace-out. Exits 1 when any correctness check fails,
// 2 on a usage or runtime error.
//
// Each workload runs in its own process and shares nothing on disk with
// other runs: the corpus is collected afresh in every round.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <thread>

#include "bench.hpp"

namespace perfbench {
namespace {

std::vector<WorkloadSpec> workloads() {
  std::vector<WorkloadSpec> out;

  // The paper's offline experiment (Figs. 13-16): the Table 1 database at
  // scale 0.3 (921 samples x 12 windows) collected on the pool, then the 7
  // binary-study schemes trained, evaluated and compiled at 16, 8 and 4
  // PCA features. workload, hwsim, perf (collection), ml training and hw
  // (sweep) do the work. Its serve phase is a short deployment check of
  // the sweep's MLR model with serve_mlr's traffic, there because every
  // workload reports every end-to-end metric; it takes a fifth of
  // --seconds.
  WorkloadSpec study;
  study.name = "study";
  study.why = "collection and the 21-row sweep dominate: loads workload, "
              "hwsim, perf, ml training and hw";
  study.db_scale = 0.3;
  study.collect_and_train_are_setup = false;
  study.serve_share = 0.2;
  study.rounds = 5;
  out.push_back(study);

  // MLR scores ~1e7 rows/s, so ingest, ring push/pop, gather, apply,
  // park/wake and per-batch allocation dominate: all 4096 streams are
  // sampled on one tick, and the single generator ingests the tick's
  // windows slower than two shards score them, so batches stay small
  // (serve.batch_windows and serve.batch_windows.open show it). Scoring
  // is a small share of the shards' time, so a scoring-kernel gain should
  // move little here. Collection and sweep are its set-up.
  WorkloadSpec mlr;
  mlr.name = "serve_mlr";
  mlr.why = "MLR is cheap and one generator ingests each 4096-window tick: "
            "loads serve ingest, rings, gather and apply";
  out.push_back(mlr);
  return out;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = std::stoi(value);
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (argc % 2 == 0 || a.workload.empty() || !have_seed || a.seconds <= 0.0 ||
      (a.trace != 0 && a.trace != 1))
    throw std::invalid_argument(
        "usage: hmd_perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> [--trace-out <file>]");
  return a;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Per-round measurements; every reported time is their median.
struct Rounds {
  std::vector<double> setup_s, collect_cpu_wps, train_cpu_s, max_wps, p50_us;
  std::vector<double> collect_s, train_s;  ///< wall: printed, trace.overhead
  std::vector<double> interval_p99_us;  ///< per latency interval, all rounds
};

/// Windows per latency interval: whole ticks of `streams` windows.
std::size_t interval_windows(std::size_t streams) {
  return streams * ((kLatencyIntervalWindows + streams - 1) / streams);
}

/// One open loop's latencies (in send order, tick by tick): the exact p99
/// of each interval, and the exact p50 over all of them.
void add_latencies(std::vector<float>& latency_us, std::size_t streams,
                   Rounds& r) {
  // A loop shorter than one interval is one interval.
  const std::size_t per =
      std::min(interval_windows(streams), latency_us.size());
  for (std::size_t first = 0; first + per <= latency_us.size(); first += per) {
    std::vector<float> chunk(latency_us.begin() + first,
                             latency_us.begin() + first + per);
    r.interval_p99_us.push_back(quantile(chunk, 0.99));
  }
  r.p50_us.push_back(quantile(latency_us, 0.50));
}

/// The round-0 open loop's detection outcome; later rounds must repeat it.
void detection_metrics(Run& run, const OpenLoop& o) {
  const auto share = [](std::size_t a, std::size_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  run.e2e("detection_rate", share(o.detected, o.malware), "ratio",
          std::to_string(o.detected) + " of " + std::to_string(o.malware) +
              " malware streams alarmed");
  run.e2e("false_alarm_rate", share(o.false_alarms, o.benign), "ratio",
          std::to_string(o.false_alarms) + " of " + std::to_string(o.benign) +
              " benign streams alarmed");
  run.e2e("alarm_latency_windows",
          o.detected == 0 ? 0.0
                          : o.alarm_windows / static_cast<double>(o.detected),
          "windows", "mean windows to alarm over detected streams");
}

/// Traced-run summary: pool occupancy, the traced/untraced slowdown of
/// each timed phase and the share of each phase outside layer spans.
void trace_summary(Run& run) {
  run.layer("util.pool_busy_share", run.pool_busy_s / run.pool_wall_s,
            "ratio", "task time / (threads x wall), collect + 16-f sweep");
  double overhead = -1.0, unattributed = 0.0;
  for (const Run::PhaseCost& p : run.phase_costs) {
    if (p.untraced > 0.0) {
      const double o = p.traced / p.untraced - 1.0;
      std::printf("# trace overhead %-13s %+.4f\n", p.phase.c_str(), o);
      overhead = std::max(overhead, o);
    }
    std::printf("# unattributed   %-13s %.4f\n", p.phase.c_str(),
                p.unattributed);
    unattributed = std::max(unattributed, p.unattributed);
  }
  run.layer("trace.overhead", overhead, "ratio",
            "worst traced / untraced-median phase time - 1");
  run.layer("trace.unattributed_share", unattributed, "ratio",
            "worst phase share of wall time outside layer spans");
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("%-28s = %-14.6g %-8s # %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
}

void print_result(const Run& run) {
  const std::vector<Metric>& metrics =
      run.trace ? run.per_layer : run.end_to_end;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      run.checks.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(run.checks.attempted),
      static_cast<unsigned long long>(run.checks.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

int run_main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  std::optional<WorkloadSpec> spec;
  for (const WorkloadSpec& s : workloads())
    if (s.name == args.workload) spec = s;
  if (!spec) throw std::invalid_argument("unknown workload " + args.workload);

  Run run(*spec, args.seed, args.seconds, args.trace == 1);
  std::printf("# workload %s (seed %llu, %g s): %s\n", spec->name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              spec->why.c_str());

  const std::size_t nproc =
      std::max<unsigned>(1, std::thread::hardware_concurrency());
  run.threads = std::max<std::size_t>(1, nproc - 1);

  const double serve_s = args.seconds * spec->serve_share / spec->rounds;
  const double closed_s = 0.3 * serve_s;
  const double open_s = 0.7 * serve_s;
  const bool setup_includes_chain = spec->collect_and_train_are_setup;

  std::optional<Corpus> corpus;
  std::optional<Sweep> sweep0;
  std::unique_ptr<Server> server;
  std::optional<OpenLoop> open0;
  std::size_t open_windows = 0;
  Rounds r;
  for (int round = 0; round < spec->rounds; ++round) {
    // Every round sets up afresh: a new pool, then the database.
    Collected col = collect(run);
    const double windows = static_cast<double>(col.multiclass.num_instances());
    r.collect_cpu_wps.push_back(windows / col.collect_cpu_s);
    r.collect_s.push_back(col.collect_s);
    double setup = col.start_s;
    if (setup_includes_chain) setup += col.collect_s;
    if (round == 0)
      corpus = make_corpus(run, std::move(col));
    else
      check_recollection(run, *corpus, col);

    Sweep sweep = run_sweep(run, *corpus, nullptr);
    r.train_cpu_s.push_back(sweep.cpu_s);
    r.train_s.push_back(sweep.seconds);
    if (setup_includes_chain) setup += sweep.seconds;
    if (round == 0) {
      sweep0 = std::move(sweep);
      check_netlists(run, *corpus, *sweep0);
      server = std::make_unique<Server>(
          run, *corpus, sweep0->model(kServedScheme).unwrap());
    } else {
      check_sweep(run, *sweep0, sweep);
    }

    const ClosedLoop closed = server->closed_loop(closed_s, false);
    r.max_wps.push_back(closed.wps);
    if (setup_includes_chain) setup += closed.engine_start_s;
    r.setup_s.push_back(setup);

    OpenLoop open = server->open_loop(open_s, false);
    open_windows = open.latency_us.size();
    add_latencies(open.latency_us, kStreams, r);
    if (round == 0) {
      open0 = std::move(open);
    } else {
      run.checks.expect(open.detected == open0->detected &&
                            open.false_alarms == open0->false_alarms &&
                            open.alarm_windows == open0->alarm_windows,
                        "repeated open loop alarms identically");
    }
  }

  const std::string of_rounds = "median of " + std::to_string(spec->rounds) +
                                " rounds";
  run.e2e("setup_s", median(r.setup_s), "s",
          (setup_includes_chain
               ? "pool start + database + collection + sweep + engine "
                 "start, "
               : "pool start + database generation (median of 9), ") +
              of_rounds);
  // CPU time, not wall time: on a shared host the wall time of these
  // pooled phases follows how many cores the host leaves the process (see
  // README.md). Their wall times are printed beside them; on serve_mlr
  // they are part of setup_s.
  const auto wall = [](const std::vector<double>& v) {
    char text[48];
    std::snprintf(text, sizeof text, " (wall %.3g s)", median(v));
    return std::string(text);
  };
  run.e2e("collect_cpu_wps", median(r.collect_cpu_wps), "1/s",
          "windows collected per CPU second of all threads" +
              wall(r.collect_s) + ", " + of_rounds);
  run.e2e("train_cpu_s", median(r.train_cpu_s), "s",
          "CPU time of all threads to PCA fit, train, evaluate, compile " +
              std::to_string(sweep0->rows.size()) + " rows" +
              wall(r.train_s) + ", " + of_rounds);
  sweep_metrics(run, *sweep0);
  run.e2e("max_wps", median(r.max_wps), "1/s",
          std::to_string(kStreams) + " streams, closed loop, " +
              of_rounds);
  const std::string rate =
      " at " + std::to_string(static_cast<long long>(kNominalWps)) +
      "/s";
  run.e2e("p50_us", median(r.p50_us), "us",
          "exact over each round's " + std::to_string(open_windows) +
              " open-loop windows" + rate + ", " + of_rounds);
  run.e2e("p99_us", median(r.interval_p99_us), "us",
          "exact over each interval of " +
              std::to_string(interval_windows(kStreams)) +
              " windows" + rate + ", median of " +
              std::to_string(r.interval_p99_us.size()) + " intervals");
  detection_metrics(run, *open0);

  if (run.trace) {
    traced_collection(run, *corpus, median(r.collect_s));
    const Sweep traced = run_sweep(run, *corpus, &run.tracer);
    check_sweep(run, *sweep0, traced);
    sweep_layers(run, traced, median(r.train_s));
    server->closed_loop(closed_s, true, 1.0 / median(r.max_wps));
    server->open_loop(open_s, true);
    trace_summary(run);
    if (!args.trace_out.empty()) run.tracer.write_json(args.trace_out);
  }
  run.e2e("peak_rss_mb", peak_rss_mb(), "MB", "getrusage ru_maxrss");

  std::printf("# failed_ratio = %.6g (%llu of %llu checks)\n",
              static_cast<double>(run.checks.failed) /
                  static_cast<double>(run.checks.attempted),
              static_cast<unsigned long long>(run.checks.failed),
              static_cast<unsigned long long>(run.checks.attempted));
  print_metrics(run.end_to_end);
  print_metrics(run.per_layer);
  print_result(run);
  std::fflush(stdout);
  return run.checks.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hmd_perfbench: %s\n", e.what());
    return 2;
  }
}
