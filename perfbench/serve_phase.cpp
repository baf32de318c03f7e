// The serve layer under two loads: a saturating closed loop (max_wps) and
// an open loop at the workload's nominal rate (latency and detection).
//
// Every generated window carries its send index in the low mantissa bits
// of one counter. A decorator around the served model (ScoreProbe) reads
// the tag of every row it scores, so per-window latency is exact — from
// the window's due time to the end of its scoring call — and never comes
// from the engine's bucketed histograms. The serial replay sees the same
// tagged windows, so tagging cannot make the two disagree.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <span>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/online_detector.hpp"
#include "serve/stream_engine.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kWidth = 16;
/// The tagged counter: "instructions", which is never zero.
constexpr std::size_t kTagCounter = 0;
/// 28 tag bits move a counter by less than 2^-24 of its value.
constexpr std::uint64_t kTagMask = (std::uint64_t{1} << 28) - 1;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
constexpr std::size_t kOfflineWindows = 65536;
constexpr int kApplyPasses = 16;
constexpr auto kSpinWindow = std::chrono::microseconds(200);

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

double with_tag(double v, std::uint64_t tag) {
  const std::uint64_t b = (bits_of(v) & ~kTagMask) | (tag & kTagMask);
  std::memcpy(&v, &b, sizeof v);
  return v;
}

/// Folds one verdict probability into a stream's running hash.
std::uint64_t fold(std::uint64_t h, double probability) {
  return (h ^ bits_of(probability)) * kFnvPrime;
}

/// Stream s replays held-out sample s mod n cyclically, so every sample
/// has the same number of streams in every run. --seed draws the order in
/// which the streams send within a round and each stream's first window.
/// Send index i is round i / S, position i % S.
class Traffic {
 public:
  Traffic(const Corpus& c, std::size_t streams, std::uint64_t seed)
      : test_(c.test_bin),
        windows_(c.config.collector.num_windows),
        order_(streams),
        position_(streams),
        offset_(streams),
        samples_(c.test_samples.size()) {
    Rng rng(seed);
    for (std::size_t s = 0; s < streams; ++s) order_[s] = s;
    rng.shuffle(order_);
    for (std::size_t p = 0; p < streams; ++p) position_[order_[p]] = p;
    for (std::size_t s = 0; s < streams; ++s)
      offset_[s] = rng.uniform_index(windows_);
    for (std::size_t i = 0; i < test_.num_instances(); ++i) {
      const double tagged = test_.features_of(i)[kTagCounter];
      if (!(tagged > 0.0) || !std::isnormal(tagged))
        throw std::runtime_error("tag counter is not a positive normal");
    }
  }

  std::size_t streams() const { return order_.size(); }
  std::size_t stream_at(std::uint64_t i) const {
    return order_[i % streams()];
  }
  bool malware(std::size_t s) const {
    return test_.class_of((s % samples_) * windows_) == 1;
  }
  /// Send index of stream s's j-th window.
  std::uint64_t send_index(std::size_t s, std::uint64_t j) const {
    return j * streams() + position_[s];
  }

  /// Writes window i (tagged with i) to `out`.
  void window(std::uint64_t i, double* out) const {
    const std::size_t s = stream_at(i);
    const std::uint64_t j = i / streams();
    const auto row = test_.features_of((s % samples_) * windows_ +
                                       (offset_[s] + j) % windows_);
    std::memcpy(out, row.data(), kWidth * sizeof(double));
    out[kTagCounter] = with_tag(out[kTagCounter], i);
  }

 private:
  const ml::Dataset& test_;
  std::size_t windows_;
  std::vector<std::size_t> order_;
  std::vector<std::size_t> position_;
  std::vector<std::size_t> offset_;
  std::size_t samples_;
};

/// What ScoreProbe records during one phase.
struct PhaseLog {
  explicit PhaseLog(std::size_t streams) : hash(streams, kFnvBasis) {}

  std::vector<std::uint64_t> hash;  ///< per stream, scored probabilities
  /// Per send index, microseconds from due time to the end (latency) and
  /// the start (queue) of the window's scoring call; open loop only.
  std::vector<float> latency_us;
  std::vector<float> queue_us;
  // Due time of send index i: t0 + round * period (all streams of a round
  // are sampled on the same tick).
  Clock::time_point t0;
  double period_s = 0.0;

  std::atomic<std::uint64_t> scored{0};
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> busy_ns{0};

  double due_s(std::uint64_t i, std::size_t streams) const {
    return static_cast<double>(i / streams) * period_s;
  }
};

/// Decorator around the served model: forwards every call and, for each
/// scoring batch, stamps the rows' tags with the call's start and end and
/// folds each row's P(malware) into its stream's hash. Shards write
/// disjoint streams and send indices.
class ScoreProbe final : public ml::Classifier {
 public:
  ScoreProbe(const ml::Classifier& inner, const Traffic& traffic)
      : inner_(inner), traffic_(traffic) {}

  void attach(PhaseLog* log) { log_.store(log, std::memory_order_release); }

  void train(const ml::DatasetView&) override {
    throw std::logic_error("ScoreProbe wraps a trained model");
  }
  std::size_t predict(std::span<const double> f) const override {
    return inner_.predict(f);
  }
  std::vector<double> distribution(std::span<const double> f) const override {
    return inner_.distribution(f);
  }
  std::string name() const override { return inner_.name(); }
  const ml::Classifier& unwrap() const override { return inner_.unwrap(); }
  std::size_t num_classes() const override { return inner_.num_classes(); }

  void distribution_batch(std::span<const double> flat, std::size_t width,
                          std::span<double> out) const override {
    const Clock::time_point start = Clock::now();
    inner_.distribution_batch(flat, width, out);
    const Clock::time_point end = Clock::now();
    PhaseLog& log = *log_.load(std::memory_order_acquire);
    const std::size_t rows = flat.size() / width;
    const std::size_t classes = out.size() / rows;
    const std::size_t streams = traffic_.streams();
    const double start_s = seconds_between(log.t0, start);
    const double end_s = seconds_between(log.t0, end);
    for (std::size_t r = 0; r < rows; ++r) {
      const std::uint64_t i = bits_of(flat[r * width + kTagCounter]) & kTagMask;
      std::uint64_t& h = log.hash[traffic_.stream_at(i)];
      h = fold(h, out[r * classes + 1]);
      if (!log.latency_us.empty()) {
        const double due = log.due_s(i, streams);
        log.latency_us[i] = static_cast<float>((end_s - due) * 1e6);
        log.queue_us[i] = static_cast<float>((start_s - due) * 1e6);
      }
    }
    log.busy_ns.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
                .count()),
        std::memory_order_relaxed);
    log.calls.fetch_add(1, std::memory_order_relaxed);
    log.scored.fetch_add(rows, std::memory_order_release);
  }

 private:
  const ml::Classifier& inner_;
  const Traffic& traffic_;
  std::atomic<PhaseLog*> log_{nullptr};
};

/// Generator-side record of one phase. Traced and untraced phases run the
/// same code: the generator builds each tick's windows into a buffer, then
/// ingests them, with one clock read around each step.
struct GenStats {
  std::uint64_t sent = 0;
  double elapsed_s = 0.0;  ///< first due time to drain complete
  double build_s = 0.0;    ///< window construction
  double ingest_s = 0.0;   ///< StreamEngine::ingest
  double wait_s = 0.0;     ///< waiting for due times
  double drain_s = 0.0;    ///< StreamEngine::drain
  std::uint64_t backlog_max = 0;
  std::vector<float> late_us;  ///< per tick, open loop

  /// Share of generator wall time outside the timed calls.
  double unattributed() const {
    return (elapsed_s - build_s - ingest_s - wait_s - drain_s) / elapsed_s;
  }
};

/// One engine serving one phase's streams. The log outlives the engine,
/// whose destructor drains the last batches.
struct Phase {
  PhaseLog log;
  serve::StreamEngine engine;
  std::vector<serve::StreamEngine::StreamHandle> handles;

  Phase(ScoreProbe& probe, const serve::ServeConfig& cfg, std::size_t streams)
      : log(streams), engine(probe, cfg) {
    handles.reserve(streams);
    for (std::size_t s = 0; s < streams; ++s)
      handles.push_back(engine.register_stream(s));
    probe.attach(&log);
  }

  void finish(GenStats& g) {
    const Clock::time_point drain0 = Clock::now();
    engine.drain();
    const Clock::time_point end = Clock::now();
    g.drain_s = seconds_between(drain0, end);
    g.elapsed_s = seconds_between(log.t0, end);
  }
};

/// One tick: every stream's next window, send indices [first, first + S).
class Tick {
 public:
  explicit Tick(const Traffic& traffic)
      : traffic_(traffic), windows_(traffic.streams() * kWidth) {}

  void build(std::uint64_t first) {
    first_ = first;
    for (std::size_t k = 0; k < traffic_.streams(); ++k)
      traffic_.window(first + k, &windows_[k * kWidth]);
  }

  void ingest(Phase& ph) const {
    for (std::size_t k = 0; k < traffic_.streams(); ++k)
      ph.engine.ingest(ph.handles[traffic_.stream_at(first_ + k)],
                       std::span<const double>(&windows_[k * kWidth], kWidth));
  }

 private:
  const Traffic& traffic_;
  std::vector<double> windows_;
  std::uint64_t first_ = 0;
};

/// Saturating closed loop: the generator sends whole ticks (one window per
/// stream) back to back, blocking on full rings, until `seconds`.
GenStats run_closed(Phase& ph, const Traffic& traffic, double seconds) {
  GenStats g;
  const std::size_t streams = traffic.streams();
  Tick tick(traffic);
  ph.log.t0 = Clock::now();
  Clock::time_point now = ph.log.t0;
  for (std::uint64_t first = 0;; first += streams) {
    if (seconds_between(ph.log.t0, now) >= seconds ||
        first + streams > kTagMask) {
      g.sent = first;
      break;
    }
    tick.build(first);
    const Clock::time_point built = Clock::now();
    tick.ingest(ph);
    const Clock::time_point done = Clock::now();
    g.build_s += seconds_between(now, built);
    g.ingest_s += seconds_between(built, done);
    now = done;
  }
  ph.finish(g);
  return g;
}

/// Open loop: `rounds` ticks at `rate`. Each tick's windows are built ahead
/// and ingested from its due time (or at once when the generator is late);
/// latency counts from the due time, so a stall is charged to every window
/// it delays.
GenStats run_open(Phase& ph, const Traffic& traffic, std::uint64_t rounds,
                  double rate) {
  GenStats g;
  const std::size_t streams = traffic.streams();
  g.sent = rounds * streams;
  if (g.sent > kTagMask)
    throw std::invalid_argument("open loop exceeds the window tag range");
  PhaseLog& log = ph.log;
  log.period_s = static_cast<double>(streams) / rate;
  log.latency_us.assign(g.sent, 0.0f);
  log.queue_us.assign(g.sent, 0.0f);
  g.late_us.reserve(rounds);
  Tick tick(traffic);
  log.t0 = Clock::now() + std::chrono::milliseconds(1);
  for (std::uint64_t first = 0; first < g.sent; first += streams) {
    const Clock::time_point build0 = Clock::now();
    tick.build(first);
    Clock::time_point now = Clock::now();
    g.build_s += seconds_between(build0, now);
    const Clock::time_point due =
        log.t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(log.due_s(first, streams)));
    if (now < due) {
      // Sleep through the gap between ticks, spin the last stretch.
      const Clock::time_point wait0 = now;
      if (due - now > kSpinWindow) std::this_thread::sleep_until(due - kSpinWindow);
      while ((now = Clock::now()) < due) {
      }
      g.wait_s += seconds_between(wait0, now);
    }
    g.late_us.push_back(static_cast<float>(seconds_between(due, now) * 1e6));
    tick.ingest(ph);
    g.ingest_s += seconds_between(now, Clock::now());
    g.backlog_max = std::max<std::uint64_t>(
        g.backlog_max,
        first + streams - log.scored.load(std::memory_order_relaxed));
  }
  ph.finish(g);
  return g;
}

}  // namespace

struct Server::Impl {
  Run& run;
  const ml::Classifier& model;
  Traffic traffic;
  ScoreProbe probe;
  serve::ServeConfig cfg;

  Impl(Run& r, const Corpus& c, const ml::Classifier& m)
      : run(r),
        model(m),
        traffic(c, kStreams, r.seed),
        probe(m, traffic) {
    cfg.num_shards = std::min(kShards, std::max<std::size_t>(1, r.threads - 1));
    cfg.window_size = kWidth;
    cfg.backpressure = serve::ServeConfig::Backpressure::kBlock;
    cfg.policy = alarm_policy();
  }

  /// Every stream's scored probabilities and final alarm state must equal
  /// a serial OnlineDetector::observe replay of the same tagged windows,
  /// and every sent window must have been scored exactly once. Returns
  /// the replay's single-thread windows per second.
  double check(const char* what, const Phase& ph, const GenStats& g) {
    const std::size_t streams = traffic.streams();
    const std::uint64_t per_stream = g.sent / streams;
    run.checks.expect(ph.log.scored.load() == g.sent &&
                          !ph.engine.last_error().has_value(),
                      std::string(what) + ": every sent window scored once");
    std::vector<char> ok(streams, 0);
    std::vector<double> replay_s(streams, 0.0);
    parallel_for(run.pool.get(), streams, [&](std::size_t s) {
      const Clock::time_point t0 = Clock::now();
      core::OnlineDetector serial(model, alarm_policy());
      std::uint64_t h = kFnvBasis;
      std::array<double, kWidth> w{};
      for (std::uint64_t j = 0; j < per_stream; ++j) {
        traffic.window(traffic.send_index(s, j), w.data());
        h = fold(h, serial.observe(w).probability);
      }
      replay_s[s] = seconds_between(t0, Clock::now());
      const auto a = serial.state();
      const auto b = ph.engine.monitor(ph.handles[s]).state();
      ok[s] = h == ph.log.hash[s] && a.windows == b.windows &&
              a.flagged == b.flagged && a.streak == b.streak &&
              a.alarmed == b.alarmed && a.alarm_window == b.alarm_window &&
              ph.engine.dropped(ph.handles[s]) == 0;
    });
    for (std::size_t s = 0; s < streams; ++s)
      run.checks.expect(ok[s] != 0, std::string(what) + ": stream " +
                                        std::to_string(s) +
                                        " equals its serial replay");
    double total = 0.0;
    for (double t : replay_s) total += t;
    return static_cast<double>(g.sent) / total;
  }

  /// ml.score_ns_offline and core.apply_ns: the served model on the first
  /// closed-loop windows in one call, then the streak/alarm state machine
  /// alone on the resulting probabilities.
  void offline_layers(std::uint64_t sent) {
    const auto n =
        static_cast<std::size_t>(std::min<std::uint64_t>(sent, kOfflineWindows));
    const std::size_t classes = model.num_classes();
    std::vector<double> flat(n * kWidth);
    std::vector<double> out(n * classes);
    for (std::size_t i = 0; i < n; ++i) traffic.window(i, &flat[i * kWidth]);
    const Clock::time_point t0 = Clock::now();
    model.distribution_batch(flat, kWidth, out);
    const double score_s = seconds_between(t0, Clock::now());
    run.layer("ml.score_ns_offline", score_s / static_cast<double>(n) * 1e9,
              "ns",
              "one distribution_batch call over " + std::to_string(n) +
                  " windows");

    core::OnlineDetector detector(model, alarm_policy());
    const Clock::time_point t1 = Clock::now();
    for (int pass = 0; pass < kApplyPasses; ++pass) {
      detector.reset();
      for (std::size_t i = 0; i < n; ++i)
        detector.apply_probability(out[i * classes + 1]);
    }
    const double apply_s = seconds_between(t1, Clock::now());
    run.layer("core.apply_ns",
              apply_s / static_cast<double>(n * kApplyPasses) * 1e9, "ns",
              "OnlineDetector::apply_probability");
  }
};

Server::Server(Run& run, const Corpus& c, const ml::Classifier& model)
    : impl_(std::make_unique<Impl>(run, c, model)) {}

Server::~Server() = default;

ClosedLoop Server::closed_loop(double seconds, bool traced,
                               double untraced_s_per_window) {
  Impl& m = *impl_;
  ClosedLoop out;
  const Clock::time_point t0 = Clock::now();
  Phase ph(m.probe, m.cfg, m.traffic.streams());
  out.engine_start_s = seconds_between(t0, Clock::now());
  const GenStats g = run_closed(ph, m.traffic, seconds);
  const double sent = static_cast<double>(g.sent);
  out.wps = sent / g.elapsed_s;
  const double serial_wps = m.check("closed loop", ph, g);
  if (!traced) return out;

  Run& run = m.run;
  const double busy_s = static_cast<double>(ph.log.busy_ns.load()) * 1e-9;
  run.layer("ml.score_ns", busy_s / sent * 1e9, "ns",
            "distribution_batch inside the engine, per window");
  run.layer("serve.ingest_ns", g.ingest_s / sent * 1e9, "ns",
            "StreamEngine::ingest on the generator, closed loop");
  run.layer("serve.batch_windows",
            sent / static_cast<double>(ph.log.calls.load()), "windows",
            "rows per distribution_batch call, closed loop");
  run.layer("serve.score_busy_share",
            busy_s / (g.elapsed_s * static_cast<double>(m.cfg.num_shards)),
            "ratio", "scoring time / shard-worker wall time, closed loop");
  run.layer("core.serial_wps", serial_wps, "1/s",
            "single-thread OnlineDetector::observe replay");
  m.offline_layers(g.sent);
  run.phase_costs.push_back({"serve.closed", untraced_s_per_window,
                             g.elapsed_s / sent, g.unattributed()});
  return out;
}

OpenLoop Server::open_loop(double seconds, bool traced) {
  Impl& m = *impl_;
  const auto rounds = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(seconds * kNominalWps /
                                    static_cast<double>(kStreams)));
  Phase ph(m.probe, m.cfg, m.traffic.streams());
  GenStats g = run_open(ph, m.traffic, rounds, kNominalWps);
  m.check("open loop", ph, g);

  OpenLoop out;
  out.latency_us = std::move(ph.log.latency_us);
  for (std::size_t s = 0; s < m.traffic.streams(); ++s) {
    const core::OnlineDetector& monitor = ph.engine.monitor(ph.handles[s]);
    if (m.traffic.malware(s)) {
      ++out.malware;
      if (monitor.alarmed()) {
        ++out.detected;
        out.alarm_windows += static_cast<double>(monitor.alarm_window() + 1);
      }
    } else {
      ++out.benign;
      if (monitor.alarmed()) ++out.false_alarms;
    }
  }
  if (!traced) return out;

  Run& run = m.run;
  run.layer("serve.queue_us.p50", quantile(ph.log.queue_us, 0.50), "us",
            "due time to start of scoring, open loop");
  run.layer("serve.queue_us.p99", quantile(ph.log.queue_us, 0.99), "us",
            "due time to start of scoring, open loop");
  run.layer("serve.batch_windows.open",
            static_cast<double>(g.sent) /
                static_cast<double>(ph.log.calls.load()),
            "windows", "rows per distribution_batch call, open loop");
  run.layer("serve.backlog_max", static_cast<double>(g.backlog_max),
            "windows", "max of sent - scored after each tick's ingest, open loop");
  run.layer("serve.gen_late_p99_us", quantile(g.late_us, 0.99), "us",
            "generator lateness against its schedule, per tick");
  run.phase_costs.push_back({"serve.open", 0.0, 0.0, g.unattributed()});
  return out;
}

}  // namespace perfbench
