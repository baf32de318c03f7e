#include "serve/stream_engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/online_detector.hpp"
#include "ml/kernels.hpp"
#include "ml/knn.hpp"
#include "ml/logistic.hpp"
#include "ml/quantized.hpp"
#include "ml/svm.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace hmd::serve {
namespace {

using core::OnlineDetector;
using core::OnlineDetectorConfig;

/// Deterministic stub: P(malware) = first counter value.
class StubModel : public ml::Classifier {
 public:
  void train(const ml::DatasetView&) override {}
  std::size_t predict(std::span<const double> f) const override {
    return f[0] > 0.5 ? 1 : 0;
  }
  std::vector<double> distribution(
      std::span<const double> f) const override {
    return {1.0 - f[0], f[0]};
  }
  std::string name() const override { return "Stub"; }
  std::size_t num_classes() const override { return 2; }
};

/// Stub that stalls each batch — used to force ring overflow.
class SlowModel final : public StubModel {
 public:
  void distribution_batch(std::span<const double> flat,
                          std::size_t window_size,
                          std::span<double> out) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    StubModel::distribution_batch(flat, window_size, out);
  }
};

/// Stub whose batch scoring always throws.
class FailingModel final : public StubModel {
 public:
  void distribution_batch(std::span<const double>, std::size_t,
                          std::span<double>) const override {
    throw Error("FailingModel: scoring exploded");
  }
};

/// Stub whose batch scoring waits until open() — holds a shard worker
/// mid-batch so a test can queue windows behind it.
class GatedModel final : public StubModel {
 public:
  void distribution_batch(std::span<const double> flat,
                          std::size_t window_size,
                          std::span<double> out) const override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++entered_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return open_; });
    }
    StubModel::distribution_batch(flat, window_size, out);
  }
  /// Block until some worker is held inside distribution_batch.
  void await_entered() const {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return entered_ > 0; });
  }
  /// Release every held worker; later batches pass straight through.
  void open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  mutable std::size_t entered_ = 0;
  bool open_ = false;
};

/// The e2e sampling rule: how many of a stream's windows with ordinals
/// [first, first + count) carry a latency stamp.
std::uint64_t expected_stamps(std::uint64_t id, std::uint64_t first,
                              std::uint64_t count) {
  std::uint64_t stamps = 0;
  for (std::uint64_t j = first; j < first + count; ++j)
    if ((j + id) % 64 == 0) ++stamps;
  return stamps;
}

const Histogram& e2e_histogram(const std::string& suffix = "") {
  return metrics().histogram("serve.e2e_latency_us" + suffix,
                             default_latency_buckets_us());
}

/// Deterministic per-stream window generator: values in [0, 1) with
/// occasional hot streaks so alarms actually fire.
std::vector<std::vector<double>> make_stream_windows(
    std::uint64_t stream_seed, std::size_t num_windows,
    std::size_t width) {
  Rng rng(stream_seed);
  std::vector<std::vector<double>> windows;
  windows.reserve(num_windows);
  for (std::size_t w = 0; w < num_windows; ++w) {
    std::vector<double> window(width);
    const bool hot = rng.bernoulli(0.3);
    for (std::size_t f = 0; f < width; ++f)
      window[f] = hot ? rng.uniform(0.95, 1.0) : rng.uniform();
    windows.push_back(std::move(window));
  }
  return windows;
}

/// Serial ground truth: the stream replayed through observe().
std::vector<OnlineDetector::Verdict> serial_replay(
    const ml::Classifier& model, const OnlineDetectorConfig& policy,
    const std::vector<std::vector<double>>& windows) {
  OnlineDetector det(model, policy);
  std::vector<OnlineDetector::Verdict> verdicts;
  verdicts.reserve(windows.size());
  for (const auto& w : windows) verdicts.push_back(det.observe(w));
  return verdicts;
}

void expect_verdicts_identical(
    const std::vector<OnlineDetector::Verdict>& actual,
    const std::vector<OnlineDetector::Verdict>& expected,
    const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (std::size_t w = 0; w < expected.size(); ++w) {
    // Bit-identical probabilities, not approximately equal ones.
    EXPECT_EQ(actual[w].probability, expected[w].probability)
        << label << " window " << w;
    EXPECT_EQ(actual[w].flagged, expected[w].flagged)
        << label << " window " << w;
    EXPECT_EQ(actual[w].alarm, expected[w].alarm)
        << label << " window " << w;
  }
}

TEST(ServeConfig, ValidateRejectsBadFields) {
  EXPECT_NO_THROW(ServeConfig{}.validate());
  ServeConfig c;
  c.num_shards = 0;
  EXPECT_THROW(c.validate(), PreconditionError);
  c = {};
  c.window_size = 0;
  EXPECT_THROW(c.validate(), PreconditionError);
  c = {};
  c.window_size = kMaxWindowWidth + 1;
  EXPECT_THROW(c.validate(), PreconditionError);
  c = {};
  c.ring_capacity = 1;
  EXPECT_THROW(c.validate(), PreconditionError);
  c = {};
  c.max_batch_windows = 0;
  EXPECT_THROW(c.validate(), PreconditionError);
  c = {};
  c.policy.confirm_windows = 0;
  EXPECT_THROW(c.validate(), PreconditionError);
}

TEST(StreamRouter, StableAndInRange) {
  StreamRouter router(4);
  for (std::uint64_t id = 0; id < 1000; ++id) {
    const std::size_t shard = router.shard_of(id);
    EXPECT_LT(shard, 4u);
    EXPECT_EQ(shard, router.shard_of(id));  // stable
  }
  // splitmix64 spreads sequential ids: all four shards get streams.
  std::vector<std::size_t> hits(4, 0);
  for (std::uint64_t id = 0; id < 64; ++id) ++hits[router.shard_of(id)];
  for (std::size_t k = 0; k < 4; ++k) EXPECT_GT(hits[k], 0u) << k;
}

TEST(StreamEngine, RejectsUntrainedOrNonBinaryModel) {
  ml::Logistic untrained;  // num_classes() == 0 before train
  EXPECT_THROW(StreamEngine(untrained, ServeConfig{}), PreconditionError);
}

TEST(StreamEngine, IngestRejectsWrongWindowWidth) {
  StubModel model;
  ServeConfig config;
  config.window_size = 4;
  StreamEngine engine(model, config);
  auto* stream = engine.register_stream(1);
  EXPECT_THROW(engine.ingest(stream, std::vector<double>(3, 0.0)),
               PreconditionError);
  EXPECT_THROW(engine.ingest(nullptr, std::vector<double>(4, 0.0)),
               PreconditionError);
  EXPECT_TRUE(engine.ingest(stream, std::vector<double>(4, 0.0)));
  engine.drain();
}

TEST(StreamEngine, IngestRejectsNonFiniteWindow) {
  StubModel model;
  ServeConfig config;
  config.window_size = 4;
  config.record_verdicts = true;
  StreamEngine engine(model, config);
  auto* stream = engine.register_stream(1);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto expect_rejected = [&](std::vector<double> window,
                                   const std::string& counter) {
    try {
      engine.ingest(stream, window);
      ADD_FAILURE() << "accepted a window with a non-finite " << counter;
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(counter), std::string::npos)
          << e.what();
    }
  };
  expect_rejected({0.1, nan, 0.0, 0.0}, "counter 1");
  expect_rejected({inf, 0.0, 0.0, 0.0}, "counter 0");
  expect_rejected({0.1, 0.0, 0.0, -inf}, "counter 3");
  EXPECT_EQ(engine.ingested(stream), 0u);
  EXPECT_TRUE(engine.ingest(stream, std::vector<double>{0.1, 0.0, 0.0, 0.0}));
  engine.drain();
  ASSERT_EQ(engine.verdicts(stream).size(), 1u);
  EXPECT_EQ(engine.verdicts(stream)[0].probability, 0.1);
}

TEST(StreamEngine, DropOldestChargesTheEvictedWindowsStream) {
  // One shard ring holds every stream's windows, so a burst of one stream
  // evicts another stream's oldest window; the eviction is charged to the
  // stream that lost the window.
  metrics().reset();
  GatedModel model;
  ServeConfig config;
  config.window_size = 1;
  config.ring_capacity = 8;
  config.record_verdicts = true;
  config.backpressure = ServeConfig::Backpressure::kDropOldest;
  StreamEngine engine(model, config);
  auto* quiet = engine.register_stream(1);
  auto* bursty = engine.register_stream(2);
  EXPECT_TRUE(engine.ingest(quiet, std::vector<double>{0.0}));
  model.await_entered();  // the worker holds window 0 alone
  for (int w = 1; w <= 8; ++w)
    EXPECT_TRUE(engine.ingest(quiet, std::vector<double>{w / 100.0}));
  for (int w = 0; w < 3; ++w)
    EXPECT_FALSE(engine.ingest(bursty, std::vector<double>{0.5 + w / 100.0}));
  EXPECT_EQ(engine.dropped(quiet), 3u);
  EXPECT_EQ(engine.dropped(bursty), 0u);
  model.open();
  engine.drain();

  EXPECT_EQ(engine.ingested(quiet), 9u);
  EXPECT_EQ(engine.ingested(bursty), 3u);
  EXPECT_EQ(metrics().counter("serve.dropped").value(), 3u);
  EXPECT_EQ(metrics().counter("serve.ingest_total").value(), 12u);
  // The held window and the 5 newest survive, in order.
  const std::vector<double> survivors = {0.0, 0.04, 0.05, 0.06, 0.07, 0.08};
  const auto& verdicts = engine.verdicts(quiet);
  ASSERT_EQ(verdicts.size(), survivors.size());
  for (std::size_t w = 0; w < survivors.size(); ++w)
    EXPECT_EQ(verdicts[w].probability, survivors[w]) << "window " << w;
  EXPECT_EQ(engine.verdicts(bursty).size(), 3u);
  engine.shutdown();
  metrics().reset();
}

TEST(StreamEngine, SingleStreamMatchesObserveReplay) {
  StubModel model;
  ServeConfig config;
  config.window_size = 2;
  config.num_shards = 2;
  config.record_verdicts = true;
  config.policy = {.flag_threshold = 0.9, .confirm_windows = 2};
  StreamEngine engine(model, config);

  const auto windows = make_stream_windows(7, 300, config.window_size);
  auto* stream = engine.register_stream(42);
  for (const auto& w : windows) engine.ingest(stream, w);
  engine.drain();

  const auto expected = serial_replay(model, config.policy, windows);
  expect_verdicts_identical(engine.verdicts(stream), expected, "stream42");

  OnlineDetector ground_truth(model, config.policy);
  for (const auto& w : windows) ground_truth.observe(w);
  EXPECT_EQ(engine.monitor(stream).alarmed(), ground_truth.alarmed());
  EXPECT_EQ(engine.monitor(stream).alarm_window(),
            ground_truth.alarm_window());
  EXPECT_EQ(engine.monitor(stream).windows_seen(),
            ground_truth.windows_seen());
  EXPECT_EQ(engine.ingested(stream), windows.size());
  EXPECT_EQ(engine.dropped(stream), 0u);
}

TEST(StreamEngine, LogisticBatchedScoringIsBitIdenticalToSerial) {
  // A real trained model: the batched distribution_batch path (Logistic's
  // buffer-reusing override) must reproduce observe() bit-for-bit.
  constexpr std::size_t kWidth = 8;
  std::vector<ml::Attribute> attrs;
  for (std::size_t f = 0; f < kWidth; ++f)
    attrs.emplace_back("f" + std::to_string(f));
  attrs.emplace_back("class",
                     std::vector<std::string>{"benign", "malware"});
  ml::Dataset data(std::move(attrs), "serve_blobs");
  Rng rng(99);
  for (std::size_t i = 0; i < 400; ++i) {
    ml::Instance row;
    const double cls = i % 2 == 0 ? 0.0 : 1.0;
    for (std::size_t f = 0; f < kWidth; ++f)
      row.values.push_back(rng.normal(cls * 2.0 + static_cast<double>(f) * 0.1, 1.0));
    row.values.push_back(cls);
    data.add(std::move(row));
  }
  ml::Logistic model(ml::Logistic::Params{.iterations = 40});
  model.train(data);

  ServeConfig config;
  config.window_size = kWidth;
  config.num_shards = 3;
  config.record_verdicts = true;
  config.policy = {.flag_threshold = 0.6, .confirm_windows = 3};
  StreamEngine engine(model, config);

  constexpr std::size_t kStreams = 9;
  std::vector<StreamEngine::StreamHandle> handles;
  std::vector<std::vector<std::vector<double>>> workload;
  for (std::size_t s = 0; s < kStreams; ++s) {
    handles.push_back(engine.register_stream(s));
    // Feature-scaled windows so probabilities span both sides of the
    // threshold.
    auto windows = make_stream_windows(1000 + s, 120, kWidth);
    for (auto& w : windows)
      for (auto& v : w) v = v * 6.0 - 1.0;
    workload.push_back(std::move(windows));
  }
  // Interleave streams round-robin, as a live feed would.
  for (std::size_t w = 0; w < 120; ++w)
    for (std::size_t s = 0; s < kStreams; ++s)
      engine.ingest(handles[s], workload[s][w]);
  engine.drain();

  for (std::size_t s = 0; s < kStreams; ++s) {
    const auto expected = serial_replay(model, config.policy, workload[s]);
    expect_verdicts_identical(engine.verdicts(handles[s]), expected,
                              "logistic stream " + std::to_string(s));
  }
}

TEST(StreamEngine, VerdictsInvariantAcrossShardCounts) {
  StubModel model;
  const auto policy =
      OnlineDetectorConfig{.flag_threshold = 0.9, .confirm_windows = 2};
  constexpr std::size_t kStreams = 13;
  constexpr std::size_t kWindows = 150;

  std::vector<std::vector<std::vector<double>>> workload;
  for (std::size_t s = 0; s < kStreams; ++s)
    workload.push_back(make_stream_windows(500 + s, kWindows, 1));

  std::vector<std::vector<std::vector<OnlineDetector::Verdict>>> runs;
  for (std::size_t shards : {1u, 2u, 4u}) {
    ServeConfig config;
    config.window_size = 1;
    config.num_shards = shards;
    config.record_verdicts = true;
    config.policy = policy;
    StreamEngine engine(model, config);
    std::vector<StreamEngine::StreamHandle> handles;
    for (std::size_t s = 0; s < kStreams; ++s)
      handles.push_back(engine.register_stream(s * 31));
    for (std::size_t w = 0; w < kWindows; ++w)
      for (std::size_t s = 0; s < kStreams; ++s)
        engine.ingest(handles[s], workload[s][w]);
    engine.drain();
    std::vector<std::vector<OnlineDetector::Verdict>> per_stream;
    for (auto* h : handles) per_stream.push_back(engine.verdicts(h));
    runs.push_back(std::move(per_stream));
  }

  for (std::size_t s = 0; s < kStreams; ++s) {
    const auto expected = serial_replay(model, policy, workload[s]);
    for (std::size_t r = 0; r < runs.size(); ++r)
      expect_verdicts_identical(runs[r][s], expected,
                                "shards run " + std::to_string(r) +
                                    " stream " + std::to_string(s));
  }
}

TEST(StreamEngine, BlockPolicyDeliversEveryWindow) {
  SlowModel model;  // scoring much slower than ingest
  ServeConfig config;
  config.window_size = 1;
  config.ring_capacity = 4;
  config.record_verdicts = true;
  config.backpressure = ServeConfig::Backpressure::kBlock;
  StreamEngine engine(model, config);
  auto* stream = engine.register_stream(5);
  const auto windows = make_stream_windows(11, 200, 1);
  for (const auto& w : windows) EXPECT_TRUE(engine.ingest(stream, w));
  engine.drain();
  EXPECT_EQ(engine.verdicts(stream).size(), windows.size());
  EXPECT_EQ(engine.dropped(stream), 0u);
  expect_verdicts_identical(engine.verdicts(stream),
                            serial_replay(model, config.policy, windows),
                            "block policy");
}

TEST(StreamEngine, DropOldestEvictsAndAccountsExactly) {
  SlowModel model;  // a 2 ms stall per batch guarantees overflow below
  ServeConfig config;
  config.window_size = 1;
  config.ring_capacity = 4;
  config.record_verdicts = true;
  config.backpressure = ServeConfig::Backpressure::kDropOldest;
  StreamEngine engine(model, config);
  auto* stream = engine.register_stream(6);
  const auto windows = make_stream_windows(13, 256, 1);
  for (const auto& w : windows) engine.ingest(stream, w);
  engine.drain();

  const std::uint64_t drops = engine.dropped(stream);
  EXPECT_GT(drops, 0u);  // 256 fast pushes through a 4-slot ring must drop
  EXPECT_EQ(engine.ingested(stream), windows.size());
  EXPECT_EQ(engine.verdicts(stream).size() + drops, windows.size());
  // Scored windows are a subsequence of the feed: every scored
  // probability equals some window's first counter, in order.
  std::size_t cursor = 0;
  for (const auto& verdict : engine.verdicts(stream)) {
    while (cursor < windows.size() &&
           windows[cursor][0] != verdict.probability)
      ++cursor;
    ASSERT_LT(cursor, windows.size()) << "verdict not from the feed";
    ++cursor;
  }
}

TEST(StreamEngine, DrainSurfacesScoringErrors) {
  FailingModel model;
  ServeConfig failing_config;
  failing_config.window_size = 1;
  StreamEngine engine(model, failing_config);
  auto* stream = engine.register_stream(3);
  for (int i = 0; i < 10; ++i)
    engine.ingest(stream, std::vector<double>{0.5});
  EXPECT_THROW(engine.drain(), Error);
  // The failure stays latched: shutdown surfaces it again after joining
  // the workers. Only the destructor swallows it.
  EXPECT_THROW(engine.shutdown(), Error);
}

TEST(StreamEngine, RegistrationWhileRunningIsServed) {
  StubModel model;
  ServeConfig config;
  config.window_size = 1;
  config.num_shards = 2;
  config.record_verdicts = true;
  StreamEngine engine(model, config);
  auto* first = engine.register_stream(1);
  const auto windows_a = make_stream_windows(21, 50, 1);
  for (const auto& w : windows_a) engine.ingest(first, w);
  engine.drain();

  // Engine keeps serving: a stream registered after a drain cycle.
  auto* second = engine.register_stream(2);
  const auto windows_b = make_stream_windows(22, 50, 1);
  for (const auto& w : windows_b) engine.ingest(second, w);
  engine.drain();
  EXPECT_EQ(engine.num_streams(), 2u);
  expect_verdicts_identical(engine.verdicts(second),
                            serial_replay(model, config.policy, windows_b),
                            "late stream");
}

TEST(StreamEngine, MetricsAccountForEveryWindow) {
  metrics().reset();
  StubModel model;
  ServeConfig config;
  config.window_size = 1;
  config.num_shards = 2;
  StreamEngine engine(model, config);
  std::vector<StreamEngine::StreamHandle> handles;
  for (std::uint64_t s = 0; s < 6; ++s)
    handles.push_back(engine.register_stream(s));
  constexpr std::size_t kWindows = 40;
  for (std::size_t w = 0; w < kWindows; ++w)
    for (auto* h : handles) engine.ingest(h, std::vector<double>{0.1});
  engine.drain();

  const std::uint64_t total = 6 * kWindows;
  EXPECT_EQ(metrics().counter("serve.ingest_total").value(), total);
  std::uint64_t per_shard = 0;
  for (std::size_t k = 0; k < 2; ++k)
    per_shard += metrics()
                     .counter("serve.ingest_total.shard" + std::to_string(k))
                     .value();
  EXPECT_EQ(per_shard, total);
  // Exactly the windows the 1-in-64 sampling rule stamps, no more.
  std::uint64_t stamped = 0;
  for (std::uint64_t s = 0; s < 6; ++s)
    stamped += expected_stamps(s, 0, kWindows);
  EXPECT_EQ(e2e_histogram().count(), stamped);
  EXPECT_GT(metrics()
                .histogram("serve.batch_size", default_count_buckets())
                .count(),
            0u);
  engine.shutdown();
  metrics().reset();
}

TEST(StreamEngine, DetectorCountersCountEveryWindowOnce) {
  // Once drained, the process-wide detector counters balance exactly
  // against the monitors: every window scored once, at any shard count.
  StubModel model;
  const auto policy =
      OnlineDetectorConfig{.flag_threshold = 0.9, .confirm_windows = 2};
  constexpr std::size_t kStreams = 9;
  constexpr std::size_t kWindows = 120;
  std::vector<std::vector<std::vector<double>>> workload;
  for (std::size_t s = 0; s < kStreams; ++s)
    workload.push_back(make_stream_windows(900 + s, kWindows, 1));
  for (const std::size_t shards : {1u, 4u}) {
    Counter& scored = metrics().counter("online_detector.windows_scored");
    Counter& flagged = metrics().counter("online_detector.windows_flagged");
    Counter& alarms = metrics().counter("online_detector.alarms");
    const std::uint64_t scored_before = scored.value();
    const std::uint64_t flagged_before = flagged.value();
    const std::uint64_t alarms_before = alarms.value();
    ServeConfig config;
    config.window_size = 1;
    config.num_shards = shards;
    config.policy = policy;
    StreamEngine engine(model, config);
    std::vector<StreamEngine::StreamHandle> handles;
    for (std::size_t s = 0; s < kStreams; ++s)
      handles.push_back(engine.register_stream(s * 7));
    for (std::size_t w = 0; w < kWindows; ++w)
      for (std::size_t s = 0; s < kStreams; ++s)
        engine.ingest(handles[s], workload[s][w]);
    engine.drain();

    std::uint64_t monitor_flagged = 0;
    std::uint64_t alarmed = 0;
    for (auto* h : handles) {
      monitor_flagged += engine.monitor(h).state().flagged;
      if (engine.monitor(h).alarmed()) ++alarmed;
    }
    const std::string label = std::to_string(shards) + " shards";
    EXPECT_EQ(scored.value() - scored_before, engine.total_ingested())
        << label;
    EXPECT_EQ(engine.total_ingested(), kStreams * kWindows) << label;
    EXPECT_EQ(flagged.value() - flagged_before, monitor_flagged) << label;
    EXPECT_GT(monitor_flagged, 0u) << label;
    EXPECT_EQ(alarms.value() - alarms_before, alarmed) << label;
    EXPECT_GT(alarmed, 0u) << label;
    engine.shutdown();
  }
}

TEST(StreamEngine, E2eLatencySamplesOneWindowIn64PerStream) {
  metrics().reset();
  StubModel model;
  ServeConfig config;
  config.window_size = 1;
  config.num_shards = 2;
  const auto started = std::chrono::steady_clock::now();
  StreamEngine engine(model, config);
  // Stream 5 is stamped at ordinals 59, 123 and 187.
  auto* stream = engine.register_stream(5);
  constexpr std::uint64_t kWindows = 200;
  for (std::uint64_t w = 0; w < kWindows; ++w)
    engine.ingest(stream, std::vector<double>{0.2});
  engine.drain();
  const double wall_us = std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - started)
                             .count();

  ASSERT_EQ(expected_stamps(5, 0, kWindows), 3u);
  const Histogram& all = e2e_histogram();
  EXPECT_EQ(all.count(), 3u);
  EXPECT_EQ(e2e_histogram(".shard" + std::to_string(engine.shard_of(5)))
                .count(),
            3u);
  // Every recorded latency is a real one: within the test's wall time.
  EXPECT_GE(all.min(), 0.0);
  EXPECT_LE(all.max(), wall_us);
  engine.shutdown();
  metrics().reset();
}

TEST(StreamEngine, E2eSamplingResumesFromRestoredAcceptedCount) {
  metrics().reset();
  StubModel model;
  ServeConfig config;
  config.window_size = 1;
  std::stringstream buffer;
  {
    StreamEngine engine(model, config);
    auto* stream = engine.register_stream(5);
    for (int w = 0; w < 100; ++w)
      engine.ingest(stream, std::vector<double>{0.2});
    engine.drain();
    EXPECT_EQ(e2e_histogram().count(), expected_stamps(5, 0, 100));
    engine.checkpoint(buffer);
  }
  metrics().reset();

  // The restored stream continues at ordinal 100: stamps at 123 and 187.
  // Restarting from ordinal 0 would stamp only ordinal 59.
  ServeConfig restored = config;
  restored.restore_from = std::make_shared<const EngineSnapshot>(
      EngineSnapshot::read_or_throw(buffer));
  StreamEngine engine(model, restored);
  auto* stream = engine.register_stream(5);
  ASSERT_EQ(engine.ingested(stream), 100u);
  for (int w = 0; w < 100; ++w)
    engine.ingest(stream, std::vector<double>{0.2});
  engine.drain();
  ASSERT_EQ(expected_stamps(5, 100, 100), 2u);
  ASSERT_NE(expected_stamps(5, 0, 100), 2u);
  EXPECT_EQ(e2e_histogram().count(), 2u);
  engine.shutdown();
  metrics().reset();
}

TEST(StreamEngine, CountersBalanceAfterDrainUnderBothPolicies) {
  for (const auto policy : {ServeConfig::Backpressure::kBlock,
                            ServeConfig::Backpressure::kDropOldest}) {
    const bool drop = policy == ServeConfig::Backpressure::kDropOldest;
    const std::string label = drop ? "drop-oldest" : "block";
    metrics().reset();
    GatedModel model;
    ServeConfig config;
    config.window_size = 1;
    config.num_shards = 2;
    config.ring_capacity = 8;
    config.backpressure = policy;
    StreamEngine engine(model, config);
    std::vector<StreamEngine::StreamHandle> handles;
    for (std::uint64_t s = 0; s < 5; ++s)
      handles.push_back(engine.register_stream(s));
    if (drop) {
      // Hold a worker mid-batch so the rings below overflow and evict.
      engine.ingest(handles[0], std::vector<double>{0.1});
      model.await_entered();
    } else {
      model.open();
    }
    for (int w = 0; w < 40; ++w)
      for (auto* h : handles) engine.ingest(h, std::vector<double>{0.1});
    model.open();
    engine.drain();

    // Once drained, the engine-wide instruments balance the per-stream
    // counts.
    std::uint64_t accepted = 0;
    std::uint64_t evicted = 0;
    for (auto* h : handles) {
      accepted += engine.ingested(h);
      evicted += engine.dropped(h);
    }
    if (drop)
      EXPECT_GT(evicted, 0u);
    else
      EXPECT_EQ(evicted, 0u);
    EXPECT_EQ(metrics().counter("serve.ingest_total").value(), accepted)
        << label;
    EXPECT_EQ(metrics().counter("serve.dropped").value(), evicted) << label;
    std::uint64_t per_shard = 0;
    for (std::size_t k = 0; k < engine.num_shards(); ++k) {
      const std::string suffix = ".shard" + std::to_string(k);
      per_shard += metrics().counter("serve.ingest_total" + suffix).value();
      EXPECT_EQ(metrics().gauge("serve.queue_depth" + suffix).value(), 0.0)
          << label << suffix;
    }
    EXPECT_EQ(per_shard, accepted) << label;
    engine.shutdown();
  }
  metrics().reset();
}

TEST(StreamEngine, HighWaterIsTheDepthTheWorkerFinds) {
  // high_water is the most windows of one stream in one gathered batch:
  // two streams interleave behind a held worker, and the next batch holds
  // 11 windows of one and 5 of the other.
  GatedModel model;
  ServeConfig config;
  config.window_size = 1;
  config.ring_capacity = 32;
  StreamEngine engine(model, config);
  auto* stream = engine.register_stream(9);
  auto* other = engine.register_stream(10);
  engine.ingest(stream, std::vector<double>{0.1});
  model.await_entered();
  constexpr std::uint64_t kQueued = 11;
  constexpr std::uint64_t kOther = 5;
  for (std::uint64_t w = 0; w < kQueued; ++w) {
    engine.ingest(stream, std::vector<double>{0.1});
    if (w < kOther) engine.ingest(other, std::vector<double>{0.2});
  }
  model.open();
  engine.drain();
  EXPECT_EQ(engine.high_water(stream), kQueued);
  EXPECT_EQ(engine.high_water(other), kOther);
  EXPECT_EQ(engine.dropped(stream), 0u);
  engine.shutdown();
  metrics().reset();
}

TEST(StreamEngine, EvictionSetsHighWaterToRingCapacity) {
  GatedModel model;
  ServeConfig config;
  config.window_size = 1;
  config.ring_capacity = 8;
  config.backpressure = ServeConfig::Backpressure::kDropOldest;
  StreamEngine engine(model, config);
  auto* stream = engine.register_stream(9);
  engine.ingest(stream, std::vector<double>{0.1});
  model.await_entered();
  // The held worker has the first window; 8 fill the ring, 3 evict.
  for (int w = 0; w < 11; ++w)
    engine.ingest(stream, std::vector<double>{0.1});
  EXPECT_EQ(engine.dropped(stream), 3u);
  // An eviction does not touch high_water, and the held batch is counted
  // once applied; the 8 survivors then fill the next batch.
  EXPECT_EQ(engine.high_water(stream), 0u);
  model.open();
  engine.drain();
  EXPECT_EQ(engine.high_water(stream), 8u);
  EXPECT_EQ(engine.ingested(stream), 12u);
  engine.shutdown();
  metrics().reset();
}

TEST(StreamEngine, HighWaterIsBoundedByTheBatchCap) {
  // The batch cap cuts each gather at 4 windows: the 10 queued windows go
  // in batches of 4, 4 and 2, and the windows a capped gather left queued
  // are counted in the batches that take them.
  GatedModel model;
  ServeConfig config;
  config.window_size = 1;
  config.ring_capacity = 16;
  config.max_batch_windows = 4;
  StreamEngine engine(model, config);
  auto* stream = engine.register_stream(9);
  engine.ingest(stream, std::vector<double>{0.1});
  model.await_entered();
  constexpr std::uint64_t kQueued = 10;
  for (std::uint64_t w = 0; w < kQueued; ++w)
    engine.ingest(stream, std::vector<double>{0.1});
  model.open();
  engine.drain();
  EXPECT_EQ(engine.high_water(stream), config.max_batch_windows);
  EXPECT_EQ(engine.dropped(stream), 0u);
  EXPECT_EQ(engine.ingested(stream), kQueued + 1);
  engine.shutdown();
  metrics().reset();
}

TEST(StreamEngine, DefaultRingBlocksUntilTheWorkerDrains) {
  // kBlock at the default capacity: a feeder that outruns a held worker
  // waits once its shard's ring is full, and nothing is lost.
  GatedModel model;
  ServeConfig config;
  config.record_verdicts = true;
  const std::size_t capacity = config.ring_capacity;
  StreamEngine engine(model, config);
  auto* stream = engine.register_stream(4);

  const std::size_t kWindows = 1 + capacity + 24;
  const auto window = [&config](std::size_t w) {
    std::vector<double> counts(config.window_size, 0.0);
    counts[0] = static_cast<double>(w) / 100.0;
    return counts;
  };
  std::atomic<bool> fed{false};
  std::thread feeder([&] {
    engine.ingest(stream, window(0));
    model.await_entered();  // the worker holds window 0 alone
    for (std::size_t w = 1; w < kWindows; ++w) engine.ingest(stream, window(w));
    fed.store(true);
  });

  // The held window plus a full ring, then the feeder waits inside the
  // ingest of the next window, which ingested() already counts.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (engine.ingested(stream) < 2 + capacity &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(engine.ingested(stream), 2 + capacity);
  EXPECT_FALSE(fed.load());

  model.open();
  feeder.join();
  engine.drain();
  EXPECT_EQ(engine.ingested(stream), kWindows);
  EXPECT_EQ(engine.dropped(stream), 0u);
  const auto& verdicts = engine.verdicts(stream);
  ASSERT_EQ(verdicts.size(), kWindows);
  for (std::size_t w = 0; w < kWindows; ++w)
    EXPECT_EQ(verdicts[w].probability, window(w)[0]) << "window " << w;
  engine.shutdown();
  metrics().reset();
}

TEST(StreamEngine, Q16TierMatchesQuantizedSerialReplay) {
  // --tier q16: the engine passes every window through the hardware
  // Q16.16 input grid (standardizer-derived calibration) before the
  // unmodified float model — a serial replay through an identically built
  // wrapper must match the engine's verdicts bit-for-bit.
  constexpr std::size_t kWidth = 8;
  std::vector<ml::Attribute> attrs;
  for (std::size_t f = 0; f < kWidth; ++f)
    attrs.emplace_back("f" + std::to_string(f));
  attrs.emplace_back("class", std::vector<std::string>{"benign", "malware"});
  ml::Dataset data(std::move(attrs), "q16_tier");
  Rng rng(78);
  for (std::size_t i = 0; i < 300; ++i) {
    ml::Instance row;
    const double cls = i % 2 == 0 ? 0.0 : 1.0;
    for (std::size_t f = 0; f < kWidth; ++f)
      row.values.push_back(rng.normal(cls * 2.0, 1.0));
    row.values.push_back(cls);
    data.add(std::move(row));
  }
  ml::LinearSvm model;
  model.train(data);

  ServeConfig config;
  config.window_size = kWidth;
  config.num_shards = 2;
  config.record_verdicts = true;
  config.tier = ServeConfig::Tier::kQ16;
  config.policy = {.flag_threshold = 0.6, .confirm_windows = 2};
  StreamEngine engine(model, config);

  constexpr std::size_t kStreams = 5;
  std::vector<StreamEngine::StreamHandle> handles;
  std::vector<std::vector<std::vector<double>>> workload;
  for (std::size_t s = 0; s < kStreams; ++s) {
    handles.push_back(engine.register_stream(s));
    auto windows = make_stream_windows(600 + s, 80, kWidth);
    for (auto& w : windows)
      for (auto& v : w) v = v * 4.0 - 1.0;
    workload.push_back(std::move(windows));
  }
  for (std::size_t w = 0; w < 80; ++w)
    for (std::size_t s = 0; s < kStreams; ++s)
      engine.ingest(handles[s], workload[s][w]);
  engine.drain();

  const ml::QuantizedModel q16(
      std::shared_ptr<const ml::Classifier>(std::shared_ptr<void>(), &model),
      ml::QuantizedModel::Mode::kQ16Input);
  for (std::size_t s = 0; s < kStreams; ++s) {
    const auto expected = serial_replay(q16, config.policy, workload[s]);
    expect_verdicts_identical(engine.verdicts(handles[s]), expected,
                              "q16 stream " + std::to_string(s));
  }
  engine.shutdown();
  metrics().reset();
}

TEST(StreamEngine, SnapshotPinsTierAndRejectsMismatchedRestore) {
  // The serving tier is part of a checkpoint's identity: a snapshot names
  // the tier that scored the traffic, a matching restore resumes, and a
  // mismatched restore fails with a ServeConfig-named precondition.
  StubModel model;
  ServeConfig config;
  config.window_size = 4;
  config.record_verdicts = true;
  config.tier = ServeConfig::Tier::kQ16;
  StreamEngine engine(model, config);
  const auto handle = engine.register_stream(3);
  for (const auto& w : make_stream_windows(11, 20, 4))
    engine.ingest(handle, w);
  engine.drain();

  std::stringstream buffer;
  engine.checkpoint(buffer);
  engine.shutdown();
  const EngineSnapshot snap = EngineSnapshot::read_or_throw(buffer);
  ASSERT_TRUE(snap.tier.present);
  EXPECT_EQ(snap.tier.name, "q16");

  const auto shared = std::make_shared<const EngineSnapshot>(snap);
  {
    // Matching tier: restore is accepted.
    ServeConfig same = config;
    same.restore_from = shared;
    EXPECT_NO_THROW(StreamEngine(model, same).shutdown());
  }
  for (const ServeConfig::Tier other :
       {ServeConfig::Tier::kFloat, ServeConfig::Tier::kFpga}) {
    ServeConfig mismatched = config;
    mismatched.tier = other;
    mismatched.restore_from = shared;
    EXPECT_THROW(StreamEngine(model, mismatched), PreconditionError)
        << to_string(other);
  }
  // A float-tier checkpoint is pinned too — it refuses a quantized-tier
  // restore just the same.
  ServeConfig float_cfg;
  float_cfg.window_size = 4;
  StreamEngine float_engine(model, float_cfg);
  std::stringstream float_buf;
  float_engine.checkpoint(float_buf);
  float_engine.shutdown();
  const auto float_snap = std::make_shared<const EngineSnapshot>(
      EngineSnapshot::read_or_throw(float_buf));
  EXPECT_EQ(float_snap->tier.name, "float");
  ServeConfig q16_cfg = config;
  q16_cfg.restore_from = float_snap;
  EXPECT_THROW(StreamEngine(model, q16_cfg), PreconditionError);

  // A snapshot pinning a tier this build does not serve (older builds
  // wrote "tier int8") loads, but no engine restores it: the error names
  // ServeConfig.tier and lists the tiers that exist.
  std::istringstream legacy(
      "hmd-snapshot v1\n"
      "model_version 1\n"
      "streams 1\n"
      "stream 3 accepted 20 evicted 0 high_water 1 windows 20 flagged 0 "
      "streak 0 alarmed 0 alarm_window -\n"
      "tier int8\n");
  const auto legacy_snap = std::make_shared<const EngineSnapshot>(
      EngineSnapshot::read_or_throw(legacy));
  EXPECT_EQ(legacy_snap->tier.name, "int8");
  for (const ServeConfig::Tier tier :
       {ServeConfig::Tier::kFloat, ServeConfig::Tier::kQ16,
        ServeConfig::Tier::kFpga}) {
    ServeConfig restore = config;
    restore.tier = tier;
    restore.restore_from = legacy_snap;
    try {
      StreamEngine(model, restore).shutdown();
      ADD_FAILURE() << "tier int8 snapshot restored under " << to_string(tier);
    } catch (const PreconditionError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("ServeConfig.tier"), std::string::npos) << what;
      EXPECT_NE(what.find("(known: float q16 fpga)"), std::string::npos)
          << what;
    }
  }
  metrics().reset();
}

TEST(StreamEngine, Q16TierKeepsFloatPathForUnsupportedScheme) {
  // Schemes without a standardizer have no q16 lowering and silently serve
  // float under --tier q16 — verdicts must equal the float serial replay
  // exactly.
  StubModel model;
  ASSERT_FALSE(ml::QuantizedModel::q16_supported(model));
  ServeConfig config;
  config.window_size = 4;
  config.record_verdicts = true;
  config.tier = ServeConfig::Tier::kQ16;
  StreamEngine engine(model, config);
  const auto handle = engine.register_stream(0);
  const auto windows = make_stream_windows(321, 60, 4);
  for (const auto& w : windows) engine.ingest(handle, w);
  engine.drain();
  const auto expected = serial_replay(model, config.policy, windows);
  expect_verdicts_identical(engine.verdicts(handle), expected,
                            "unsupported-scheme q16 tier");
  engine.shutdown();
  metrics().reset();
}

// Randomized-interleaving soak: concurrent feeders, random per-stream
// window counts and random scheduling jitter across repeats and shard
// counts; every stream must still match its serial replay exactly. The
// TSan CI job runs this suite (ServeSoak) for race coverage of the
// multi-producer ingest path.
TEST(ServeSoak, RandomInterleavingsMatchSerialReplay) {
  StubModel model;
  const auto policy =
      OnlineDetectorConfig{.flag_threshold = 0.9, .confirm_windows = 2};
  constexpr std::size_t kFeeders = 4;
  constexpr std::size_t kStreamsPerFeeder = 6;
  constexpr std::size_t kStreams = kFeeders * kStreamsPerFeeder;

  std::uint64_t master = 0xfeed5eed;
  for (std::size_t repeat = 0; repeat < 3; ++repeat) {
    const std::size_t shards = repeat + 1;  // 1, 2, 3
    ServeConfig config;
    config.window_size = 2;
    config.num_shards = shards;
    config.ring_capacity = 32;
    config.record_verdicts = true;
    config.policy = policy;
    StreamEngine engine(model, config);

    // Random-length workloads, deterministic in the repeat seed.
    std::vector<std::vector<std::vector<double>>> workload;
    std::vector<StreamEngine::StreamHandle> handles;
    Rng shape_rng(splitmix64(master));
    for (std::size_t s = 0; s < kStreams; ++s) {
      handles.push_back(engine.register_stream(1000 + s));
      const auto count =
          static_cast<std::size_t>(shape_rng.uniform_int(10, 120));
      workload.push_back(
          make_stream_windows(splitmix64(master), count, 2));
    }

    // Each feeder owns a disjoint slice of streams and walks them in a
    // random order, so shards see arbitrarily interleaved arrivals.
    std::vector<std::thread> feeders;
    for (std::size_t f = 0; f < kFeeders; ++f)
      feeders.emplace_back([&, f] {
        Rng feed_rng(0xf00d + f * 7919 + repeat);
        std::vector<std::size_t> cursor(kStreamsPerFeeder, 0);
        std::vector<std::size_t> open;
        for (std::size_t j = 0; j < kStreamsPerFeeder; ++j) open.push_back(j);
        while (!open.empty()) {
          const std::size_t pick = static_cast<std::size_t>(
              feed_rng.uniform_index(open.size()));
          const std::size_t local = open[pick];
          const std::size_t s = f * kStreamsPerFeeder + local;
          engine.ingest(handles[s], workload[s][cursor[local]]);
          if (++cursor[local] == workload[s].size())
            open.erase(open.begin() + static_cast<std::ptrdiff_t>(pick));
        }
      });
    for (auto& t : feeders) t.join();
    engine.drain();

    for (std::size_t s = 0; s < kStreams; ++s) {
      const auto expected = serial_replay(model, policy, workload[s]);
      expect_verdicts_identical(
          engine.verdicts(handles[s]), expected,
          "repeat " + std::to_string(repeat) + " stream " +
              std::to_string(s));
      EXPECT_EQ(engine.monitor(handles[s]).alarm_window(),
                expected.empty()
                    ? OnlineDetector::kNoAlarm
                    : [&] {
                        OnlineDetector det(model, policy);
                        for (const auto& w : workload[s]) det.observe(w);
                        return det.alarm_window();
                      }());
    }
    engine.shutdown();
  }
}

// Quantized-tier soak: concurrent feeders through the q16 tier while the
// SAME trained model is re-published mid-traffic. The re-publish bumps the
// epoch version, forcing every shard worker to re-derive its cached
// quantized lowering under live ingest — the tier's only swap-adjacent
// state — while keeping scores identical, so every stream must still
// match the quantized serial replay exactly. The TSan CI job runs this
// suite (ServeSoak) for race coverage of the tier cache.
TEST(ServeSoak, QuantizedTierSurvivesConcurrentFeedersAndRepublish) {
  constexpr std::size_t kWidth = 8;
  std::vector<ml::Attribute> attrs;
  for (std::size_t f = 0; f < kWidth; ++f)
    attrs.emplace_back("f" + std::to_string(f));
  attrs.emplace_back("class", std::vector<std::string>{"benign", "malware"});
  ml::Dataset data(std::move(attrs), "tier_soak");
  Rng rng(79);
  for (std::size_t i = 0; i < 300; ++i) {
    ml::Instance row;
    const double cls = i % 2 == 0 ? 0.0 : 1.0;
    for (std::size_t f = 0; f < kWidth; ++f)
      row.values.push_back(rng.normal(cls * 2.0, 1.0));
    row.values.push_back(cls);
    data.add(std::move(row));
  }
  const auto model = std::make_shared<ml::Logistic>(
      ml::Logistic::Params{.iterations = 30});
  model->train(data);

  ServeConfig config;
  config.window_size = kWidth;
  config.num_shards = 3;
  config.record_verdicts = true;
  config.tier = ServeConfig::Tier::kQ16;
  config.policy = {.flag_threshold = 0.6, .confirm_windows = 2};
  auto hub = std::make_shared<ModelHub>();
  hub->publish(model);
  StreamEngine engine(hub, config);

  constexpr std::size_t kFeeders = 3;
  constexpr std::size_t kStreamsPerFeeder = 4;
  constexpr std::size_t kStreams = kFeeders * kStreamsPerFeeder;
  constexpr std::size_t kWindows = 120;
  std::vector<StreamEngine::StreamHandle> handles;
  std::vector<std::vector<std::vector<double>>> workload;
  for (std::size_t s = 0; s < kStreams; ++s) {
    handles.push_back(engine.register_stream(2000 + s));
    auto windows = make_stream_windows(700 + s, kWindows, kWidth);
    for (auto& w : windows)
      for (auto& v : w) v = v * 4.0 - 1.0;
    workload.push_back(std::move(windows));
  }

  std::vector<std::thread> feeders;
  for (std::size_t f = 0; f < kFeeders; ++f)
    feeders.emplace_back([&, f] {
      for (std::size_t w = 0; w < kWindows; ++w)
        for (std::size_t j = 0; j < kStreamsPerFeeder; ++j)
          engine.ingest(handles[f * kStreamsPerFeeder + j],
                        workload[f * kStreamsPerFeeder + j][w]);
    });
  // Re-publish the identical model under live traffic: new epoch
  // versions, identical scores, fresh quantized lowerings per shard.
  std::thread publisher([&] {
    for (int i = 0; i < 4; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      hub->publish(model);
    }
  });
  for (auto& t : feeders) t.join();
  publisher.join();
  engine.drain();

  const ml::QuantizedModel q16(model, ml::QuantizedModel::Mode::kQ16Input);
  for (std::size_t s = 0; s < kStreams; ++s) {
    const auto expected = serial_replay(q16, config.policy, workload[s]);
    expect_verdicts_identical(engine.verdicts(handles[s]), expected,
                              "tier soak stream " + std::to_string(s));
  }
  engine.shutdown();
  metrics().reset();
}

// Indexed IBk soak: a k-NN model whose KD-tree index is built, so every
// multi-row batch is scored in leading-feature order rather than arrival
// order, served to concurrent feeders at 1, 2 and 4 shards. Every stream's
// verdicts and alarm must still match its serial replay exactly. The TSan
// CI job runs this suite (ServeSoak).
TEST(ServeSoak, KnnModelMatchesSerialReplayAcrossShardCounts) {
  constexpr std::size_t kWidth = 16;
  constexpr std::size_t kFeeders = 2;
  constexpr std::size_t kStreams = 8;
  constexpr std::size_t kWindows = 200;

  // Two Gaussian blobs (benign/malware) in the counter layout's shape.
  std::vector<ml::Attribute> attrs;
  for (std::size_t f = 0; f < kWidth; ++f)
    attrs.emplace_back("f" + std::to_string(f));
  attrs.emplace_back("class", std::vector<std::string>{"benign", "malware"});
  ml::Dataset data(std::move(attrs), "knn_soak");
  Rng rng(11);
  for (std::size_t i = 0; i < 2 * ml::kernels::kLeafBlock + 64; ++i) {
    const std::size_t c = i % 2;
    ml::Instance row;
    for (std::size_t f = 0; f < kWidth; ++f)
      row.values.push_back(rng.normal(
          c == 0 ? 1.0 : 3.0 + 0.2 * static_cast<double>(f), 1.2));
    row.values.push_back(static_cast<double>(c));
    data.add(std::move(row));
  }
  ml::Knn model(5);
  model.train(data);
  ASSERT_TRUE(model.has_index());

  const auto policy =
      OnlineDetectorConfig{.flag_threshold = 0.9, .confirm_windows = 3};
  std::vector<std::vector<std::vector<double>>> workload(kStreams);
  std::vector<std::vector<OnlineDetector::Verdict>> expected(kStreams);
  std::vector<std::size_t> expected_alarm(kStreams);
  std::size_t alarmed_streams = 0;
  for (std::size_t s = 0; s < kStreams; ++s) {
    Rng window_rng(0x5e12e + s);
    OnlineDetector det(model, policy);
    for (std::size_t w = 0; w < kWindows; ++w) {
      std::vector<double> window(kWidth);
      const bool hot = window_rng.bernoulli(0.35);
      for (double& v : window) v = window_rng.normal(hot ? 3.4 : 1.0, 1.2);
      expected[s].push_back(det.observe(window));
      workload[s].push_back(std::move(window));
    }
    expected_alarm[s] = det.alarm_window();
    if (expected_alarm[s] != OnlineDetector::kNoAlarm) ++alarmed_streams;
  }
  ASSERT_GT(alarmed_streams, 0u);

  for (const std::size_t shards : {1u, 2u, 4u}) {
    ServeConfig config;
    config.window_size = kWidth;
    config.num_shards = shards;
    config.record_verdicts = true;
    config.policy = policy;
    StreamEngine engine(model, config);
    std::vector<StreamEngine::StreamHandle> handles;
    for (std::size_t s = 0; s < kStreams; ++s)
      handles.push_back(engine.register_stream(3000 + s));

    // Feeder f owns the streams s with s % kFeeders == f and round-robins
    // window by window across them.
    std::vector<std::thread> feeders;
    for (std::size_t f = 0; f < kFeeders; ++f)
      feeders.emplace_back([&, f] {
        for (std::size_t w = 0; w < kWindows; ++w)
          for (std::size_t s = f; s < kStreams; s += kFeeders)
            engine.ingest(handles[s], workload[s][w]);
      });
    for (auto& t : feeders) t.join();
    engine.drain();

    for (std::size_t s = 0; s < kStreams; ++s) {
      const std::string label = "shards " + std::to_string(shards) +
                                " stream " + std::to_string(s);
      expect_verdicts_identical(engine.verdicts(handles[s]), expected[s],
                                label);
      EXPECT_EQ(engine.monitor(handles[s]).alarm_window(), expected_alarm[s])
          << label;
    }
    engine.shutdown();
  }
  metrics().reset();
}

/// Stub that stalls every batch briefly, so feeders fill a small shard
/// ring and wait on it (kBlock) or evict from it (kDropOldest).
class StallingModel final : public StubModel {
 public:
  void distribution_batch(std::span<const double> flat,
                          std::size_t window_size,
                          std::span<double> out) const override {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    StubModel::distribution_batch(flat, window_size, out);
  }
};

// Shared-shard-ring soak: 3 feeders × 8 streams share each shard's
// 8-slot ring at 1 and 2 shards, with every batch stalled so the ring
// runs full. Under kBlock each stream's verdicts equal its serial replay;
// under kDropOldest every stream's windows are scored or charged as
// dropped, and the scored ones are an in-order subsequence of its feed.
// The TSan CI job runs this test by name.
TEST(ServeSoak, SharedShardRingMatchesSerialReplay) {
  StallingModel model;
  const auto policy =
      OnlineDetectorConfig{.flag_threshold = 0.9, .confirm_windows = 2};
  constexpr std::size_t kFeeders = 3;
  constexpr std::size_t kStreamsPerFeeder = 8;
  constexpr std::size_t kStreams = kFeeders * kStreamsPerFeeder;

  for (const auto backpressure : {ServeConfig::Backpressure::kBlock,
                                  ServeConfig::Backpressure::kDropOldest}) {
    const bool drop = backpressure == ServeConfig::Backpressure::kDropOldest;
    for (const std::size_t shards : {1u, 2u}) {
      const std::string run = std::string(drop ? "drop-oldest" : "block") +
                              " shards " + std::to_string(shards);
      ServeConfig config;
      config.window_size = 2;
      config.num_shards = shards;
      config.ring_capacity = 8;
      config.record_verdicts = true;
      config.policy = policy;
      config.backpressure = backpressure;
      StreamEngine engine(model, config);

      std::vector<std::vector<std::vector<double>>> workload;
      std::vector<StreamEngine::StreamHandle> handles;
      Rng shape_rng(41 + shards);
      for (std::size_t s = 0; s < kStreams; ++s) {
        handles.push_back(engine.register_stream(4000 + s));
        const auto count =
            static_cast<std::size_t>(shape_rng.uniform_int(10, 60));
        workload.push_back(make_stream_windows(900 + s, count, 2));
      }

      // Each feeder owns 8 streams and walks them in a random order.
      std::vector<std::thread> feeders;
      for (std::size_t f = 0; f < kFeeders; ++f)
        feeders.emplace_back([&, f] {
          Rng feed_rng(0xb10c + f * 31 + shards);
          std::vector<std::size_t> cursor(kStreamsPerFeeder, 0);
          std::vector<std::size_t> open;
          for (std::size_t j = 0; j < kStreamsPerFeeder; ++j)
            open.push_back(j);
          while (!open.empty()) {
            const std::size_t pick = static_cast<std::size_t>(
                feed_rng.uniform_index(open.size()));
            const std::size_t local = open[pick];
            const std::size_t s = f * kStreamsPerFeeder + local;
            engine.ingest(handles[s], workload[s][cursor[local]]);
            if (++cursor[local] == workload[s].size())
              open.erase(open.begin() + static_cast<std::ptrdiff_t>(pick));
          }
        });
      for (auto& t : feeders) t.join();
      engine.drain();

      std::uint64_t dropped = 0;
      for (std::size_t s = 0; s < kStreams; ++s) {
        const std::string label = run + " stream " + std::to_string(s);
        const auto& verdicts = engine.verdicts(handles[s]);
        EXPECT_EQ(engine.ingested(handles[s]), workload[s].size()) << label;
        dropped += engine.dropped(handles[s]);
        if (!drop) {
          EXPECT_EQ(engine.dropped(handles[s]), 0u) << label;
          expect_verdicts_identical(
              verdicts, serial_replay(model, policy, workload[s]), label);
          continue;
        }
        EXPECT_EQ(verdicts.size() + engine.dropped(handles[s]),
                  workload[s].size())
            << label;
        // In-order subsequence: each verdict's probability is the first
        // counter of a later window of the feed than the one before.
        std::size_t cursor = 0;
        for (const auto& verdict : verdicts) {
          while (cursor < workload[s].size() &&
                 workload[s][cursor][0] != verdict.probability)
            ++cursor;
          ASSERT_LT(cursor, workload[s].size())
              << label << ": verdict out of order or not from the feed";
          ++cursor;
        }
      }
      if (drop) EXPECT_GT(dropped, 0u) << run;
      engine.shutdown();
    }
  }
  metrics().reset();
}

}  // namespace
}  // namespace hmd::serve
