// hmd_serve — replay perf logs through the sharded streaming engine.
//
// Loads a deployment bundle (model + feature subset + alarm policy, from
// hmd_train --bundle) and serves one or more perf-stat-style logs (from
// hmdperf) as concurrent monitored streams: each window is projected onto
// the bundle's counter subset and ingested; shard workers score
// cross-stream batches and drive per-stream alarm state. Logs are
// assigned to streams round-robin, so --streams larger than the log count
// replays logs on several streams at once — a cheap way to exercise the
// multi-stream path with real artifacts.
//
// Resilience: the bundle's models are published through a ModelHub (a v2
// bundle's fallback becomes the degraded-mode secondary), --checkpoint
// writes an engine snapshot after the replay drains, and --restore resumes
// stream state from a previous checkpoint (see docs/resilience.md).
//
// Drift (docs/drift.md): --drift arms the per-shard Page–Hinkley + KS
// detectors over the score stream; --retrain additionally keeps a benign
// window log and rebuilds a one-class model when a detector trips,
// hot-swapping it through the hub. --then-log replays a second traffic
// phase after the first drains — point it at a shifted workload to watch
// the trip → retrain → swap loop fire end to end.
//
// Ensemble policies (docs/adversarial.md): --policy majority|stochastic
// scores each window through a ScoringPolicy instead of the primary
// alone; each --member FILE adds a bundle's model to the ensemble
// (member versions are numbered from 1001 so verdict version stamps
// cannot collide with live hub epochs), and --policy-seed seeds the
// stochastic per-window selection.
//
// Usage:
//   hmd_serve --bundle FILE --log FILE [--log FILE ...]
//             [--then-log FILE ...] [--streams N] [--shards N] [--ring N]
//             [--drop-oldest] [--drift] [--retrain] [--retrain-scheme S]
//             [--drift-lambda X] [--policy NAME] [--member FILE ...]
//             [--policy-seed N] [--checkpoint FILE] [--restore FILE]
//             [--metrics-out FILE] [--trace-out FILE]
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/deployment.hpp"
#include "ml/kernels.hpp"
#include "perf/perf_log.hpp"
#include "serve/ensemble_policy.hpp"
#include "serve/resilience.hpp"
#include "serve/stream_engine.hpp"
#include "util/cli.hpp"
#include "util/cli_presets.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/strings.hpp"
#include "util/trace.hpp"

namespace {

using namespace hmd;

}  // namespace

int main(int argc, char** argv) {
  std::string bundle_path;
  std::vector<std::string> log_paths, then_log_paths;
  std::size_t streams = 0;
  serve::ServeConfig config;
  config.num_shards = 2;
  bool drop_oldest = false, drift = false, retrain = false;
  std::string retrain_scheme;
  std::string policy_name;
  std::vector<std::string> member_paths;
  std::string checkpoint_path, restore_path, metrics_path, trace_path;
  std::string isa_name, tier_name;

  ArgParser parser("hmd_serve",
                   "Replay perf logs through the sharded streaming engine.");
  cli::add_bundle_in_flag(parser, &bundle_path);
  parser.add_strings("--log", &log_paths, "FILE",
                     "perf log to replay (hmdperf); repeatable");
  parser.add_strings("--then-log", &then_log_paths, "FILE",
                     "second traffic phase after --log drains (drift "
                     "injection); repeatable");
  parser.add_size("--streams", &streams, "N",
                  "concurrent streams (default: one per log)");
  parser.add_size("--shards", &config.num_shards, "N",
                  "scoring shards (default 2)");
  parser.add_size("--ring", &config.ring_capacity, "N",
                  "per-stream ring capacity (default 256)");
  parser.add_flag("--drop-oldest", &drop_oldest,
                  "bounded-loss backpressure instead of blocking");
  parser.add_flag("--drift", &drift,
                  "watch the score stream with per-shard drift detectors");
  parser.add_flag("--retrain", &retrain,
                  "auto-retrain a one-class model on drift (implies "
                  "--drift)");
  parser.add_string("--retrain-scheme", &retrain_scheme, "NAME",
                    "one-class scheme the retrain rebuilds (default "
                    "MahalanobisThreshold)");
  parser.add_double("--drift-lambda", &config.drift.page_hinkley.lambda,
                    "X", "Page-Hinkley trip threshold (default 25)");
  parser.add_string("--policy", &policy_name, "NAME",
                    "scoring policy: single, majority or stochastic "
                    "(default single)");
  parser.add_strings("--member", &member_paths, "FILE",
                     "ensemble member bundle (same feature subset as "
                     "--bundle); repeatable");
  parser.add_uint64("--policy-seed", &config.ensemble.seed, "N",
                    "stochastic member-selection seed (default 0)");
  parser.add_string("--checkpoint", &checkpoint_path, "FILE",
                    "write an engine snapshot after the replay drains");
  parser.add_string("--restore", &restore_path, "FILE",
                    "resume stream state from a snapshot (--checkpoint)");
  parser.add_string("--tier", &tier_name, "NAME",
                    "serving precision tier: " + serve::tier_names() +
                        " (default float; see docs/serving.md)");
  cli::add_isa_flag(parser, &isa_name);
  cli::add_observability_flags(parser, &metrics_path, &trace_path);
  parser.parse_or_exit(argc, argv);
  if (!isa_name.empty()) {
    try {
      ml::kernels::force_isa_by_name(isa_name);
    } catch (const hmd::Error& e) {
      std::cerr << "hmd_serve: " << e.what() << '\n';
      return 2;
    }
  }
  if (!tier_name.empty()) {
    const auto tier = serve::tier_from_name(tier_name);
    if (!tier.has_value()) {
      std::cerr << "hmd_serve: --tier: unknown tier '" << tier_name
                << "' (known: " << serve::tier_names() << ")\n";
      return 2;
    }
    config.tier = *tier;
  }
  if (drop_oldest)
    config.backpressure = serve::ServeConfig::Backpressure::kDropOldest;
  config.drift.enabled = drift || retrain;
  config.drift.retrain = retrain;
  if (!retrain_scheme.empty()) config.drift.retrain_scheme = retrain_scheme;
  if (bundle_path.empty() || log_paths.empty()) {
    std::cerr << "hmd_serve: --bundle and at least one --log are required\n\n"
              << parser.help();
    return 2;
  }
  if (streams == 0) streams = log_paths.size();
  if (!policy_name.empty()) {
    Result<serve::EnsembleConfig::Kind> kind =
        serve::ensemble_kind_from_name(policy_name);
    if (!kind) {
      std::cerr << "hmd_serve: " << kind.error().to_string() << '\n';
      return 2;
    }
    config.ensemble.kind = kind.value();
  }
  if (!trace_path.empty()) tracer().set_enabled(true);

  try {
    std::ifstream bundle_in(bundle_path);
    if (!bundle_in) throw Error("cannot open bundle: " + bundle_path);
    // Result-based load: a corrupt bundle reports its full error chain
    // (and would be rejected the same way by a live hot-swap).
    Result<core::DeploymentBundle> loaded = core::try_load_bundle(bundle_in);
    if (!loaded) {
      std::cerr << "hmd_serve: " << loaded.error().to_string() << '\n';
      return 1;
    }
    const core::DeploymentBundle bundle = std::move(loaded).value();

    // Ensemble members are frozen models loaded from their own bundles.
    // Each must consume the same feature subset as the primary bundle —
    // the engine projects every window onto that subset once. Versions
    // from 1001 keep member stamps distinct from hub epochs (1, 2, ...).
    std::uint64_t member_version = 1001;
    for (const std::string& path : member_paths) {
      std::ifstream member_in(path);
      if (!member_in) throw Error("cannot open member bundle: " + path);
      Result<core::DeploymentBundle> m = core::try_load_bundle(member_in);
      if (!m) {
        std::cerr << "hmd_serve: " << path << ": " << m.error().to_string()
                  << '\n';
        return 1;
      }
      auto owned = std::make_shared<const core::DeploymentBundle>(
          std::move(m).value());
      serve::PolicyMember member;
      member.name = owned->model().name();
      // Alias the bundle so the model outlives the engine's policy.
      member.model =
          std::shared_ptr<const ml::Classifier>(owned, &owned->model());
      member.version = member_version++;
      config.ensemble.members.push_back(std::move(member));
    }

    if (!restore_path.empty()) {
      std::ifstream snap_in(restore_path);
      if (!snap_in) throw Error("cannot open snapshot: " + restore_path);
      Result<serve::EngineSnapshot> snap =
          serve::EngineSnapshot::read(snap_in);
      if (!snap) {
        std::cerr << "hmd_serve: " << snap.error().to_string() << '\n';
        return 1;
      }
      config.restore_from = std::make_shared<const serve::EngineSnapshot>(
          std::move(snap).value());
      std::cerr << "restoring " << config.restore_from->streams.size()
                << " stream(s) from " << restore_path << '\n';
    }

    const auto read_logs = [](const std::vector<std::string>& paths) {
      std::vector<perf::RunLog> logs;
      for (const std::string& path : paths) {
        std::ifstream in(path);
        if (!in) throw Error("cannot open log: " + path);
        logs.push_back(perf::read_perf_log(in));
      }
      return logs;
    };
    std::vector<perf::RunLog> logs = read_logs(log_paths);
    std::vector<perf::RunLog> then_logs = read_logs(then_log_paths);

    // The engine scores model-width windows; project each full counter
    // vector onto the bundle's feature subset up front.
    const auto& features = bundle.features().indices;
    const std::size_t width = features.empty()
                                  ? serve::kMaxWindowWidth
                                  : features.size();
    const auto project_logs = [&](const std::vector<perf::RunLog>& src) {
      std::vector<std::vector<std::vector<double>>> projected(src.size());
      for (std::size_t l = 0; l < src.size(); ++l) {
        for (const perf::HpcSample& sample : src[l].samples) {
          std::vector<double> window;
          window.reserve(width);
          if (features.empty()) {
            window.assign(sample.counts.begin(), sample.counts.end());
          } else {
            for (std::size_t idx : features) {
              HMD_REQUIRE(idx < sample.counts.size(),
                          "hmd_serve: log window narrower than bundle "
                          "feature set");
              window.push_back(sample.counts[idx]);
            }
          }
          projected[l].push_back(std::move(window));
        }
      }
      return projected;
    };
    const auto projected = project_logs(logs);
    const auto then_projected = project_logs(then_logs);

    config.window_size = width;
    config.policy = bundle.policy();
    config.record_verdicts = false;
    // Publish through a ModelHub so a v2 bundle's fallback is armed for
    // degraded mode (and the epoch/version plumbing is exercised).
    auto hub = std::make_shared<serve::ModelHub>();
    hub->publish_unowned(bundle.model(), bundle.fallback_model());
    serve::StreamEngine engine(hub, config);
    if (bundle.fallback_model() != nullptr)
      std::cerr << "fallback model armed: " << bundle.fallback_model()->name()
                << '\n';
    if (const serve::ScoringPolicy* policy = engine.scoring_policy())
      std::cerr << "scoring policy: " << serve::to_string(config.ensemble.kind)
                << " (" << policy->total_members() << " members, seed "
                << config.ensemble.seed << ")\n";

    std::vector<serve::StreamEngine::StreamHandle> handles;
    std::vector<std::size_t> source_log(streams);
    for (std::size_t s = 0; s < streams; ++s) {
      handles.push_back(engine.register_stream(s));
      source_log[s] = s % logs.size();
    }

    const std::size_t feeders =
        std::min<std::size_t>(4, streams);
    const auto feed_phase =
        [&](const std::vector<std::vector<std::vector<double>>>& phase) {
          std::vector<std::thread> threads;
          for (std::size_t f = 0; f < feeders; ++f)
            threads.emplace_back([&, f] {
              // Feeder f owns streams s % feeders == f; window-by-window
              // round-robin keeps per-stream order (the determinism
              // contract).
              bool more = true;
              for (std::size_t w = 0; more; ++w) {
                more = false;
                for (std::size_t s = f; s < streams; s += feeders) {
                  const auto& wins = phase[s % phase.size()];
                  if (w >= wins.size()) continue;
                  engine.ingest(handles[s], wins[w]);
                  more = true;
                }
              }
            });
          for (auto& th : threads) th.join();
          engine.drain();
        };

    TraceSpan replay("hmd_serve/replay");
    feed_phase(projected);
    std::uint64_t swap_version = 0;
    if (config.drift.enabled) {
      // Pump at the phase boundary: a trip during phase 1 retrains here,
      // and the swap is visible to all of phase 2's batches.
      if (retrain) {
        const std::uint64_t v = engine.await_retrain();
        if (v != 0) swap_version = v;
      } else {
        engine.drift_pump();
      }
    }
    if (!then_projected.empty()) {
      feed_phase(then_projected);
      if (retrain) {
        const std::uint64_t v = engine.await_retrain();
        if (v != 0) swap_version = v;
      } else if (config.drift.enabled) {
        engine.drift_pump();
      }
    }
    const double seconds = replay.elapsed_seconds();

    if (!checkpoint_path.empty()) {
      std::ofstream out(checkpoint_path);
      if (!out) throw Error("cannot write " + checkpoint_path);
      engine.checkpoint(out);
      std::cerr << "wrote checkpoint (" << engine.num_streams()
                << " streams) to " << checkpoint_path << '\n';
    }
    engine.shutdown();

    std::printf("%-8s %-16s %-10s %8s %8s %9s %8s %6s\n", "stream",
                "sample", "label", "windows", "flagged%", "benign-mu",
                "dropped", "alarm");
    for (std::size_t s = 0; s < streams; ++s) {
      const perf::RunLog& log = logs[source_log[s]];
      const core::OnlineDetector& mon = engine.monitor(handles[s]);
      const std::size_t alarm = mon.alarm_window();
      char alarm_buf[16];
      if (alarm == core::OnlineDetector::kNoAlarm)
        std::snprintf(alarm_buf, sizeof alarm_buf, "-");
      else
        std::snprintf(alarm_buf, sizeof alarm_buf, "@%zu", alarm);
      std::printf("%-8zu %-16s %-10s %8zu %8.1f %9.3f %8llu %6s\n", s,
                  log.sample_id.c_str(), log.label.c_str(),
                  mon.windows_seen(), 100.0 * mon.flag_rate(),
                  mon.benign_score_stats().mean(),
                  static_cast<unsigned long long>(
                      engine.dropped(handles[s])),
                  alarm_buf);
    }
    std::printf("served %llu windows on %zu streams / %zu shards in "
                "%.3f s (%.0f windows/s)\n",
                static_cast<unsigned long long>(engine.total_ingested()),
                streams, engine.num_shards(), seconds,
                static_cast<double>(engine.total_ingested()) / seconds);
    if (config.drift.enabled) {
      const auto events = engine.drift_events();
      std::size_t ph_trips = 0, ks_trips = 0;
      for (const auto& e : events)
        (e.detector == serve::DriftEvent::Detector::kPageHinkley
             ? ph_trips
             : ks_trips)++;
      std::printf("drift: %zu trip(s) (%zu page-hinkley, %zu ks)",
                  events.size(), ph_trips, ks_trips);
      if (retrain) {
        if (swap_version != 0)
          std::printf(", retrained %s swapped in as epoch v%llu",
                      config.drift.retrain_scheme.c_str(),
                      static_cast<unsigned long long>(swap_version));
        else
          std::printf(", no model swap");
        if (const auto err = engine.last_retrain_error())
          std::printf(" (last retrain failed: %s)",
                      err->to_string().c_str());
      }
      std::printf("\n");
    }

    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      metrics().write_json(out);
    }
    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      tracer().write_chrome_json(out);
    }
    return 0;
  } catch (const hmd::Error& e) {
    std::cerr << "hmd_serve: " << e.what() << '\n';
    return 1;
  }
}
