// Tests for the serving resilience layer (serve/resilience.hpp): model
// hot-swap, checkpoint/restore, deterministic fault injection and the
// degradation ladder. The determinism contracts here are exact-equality,
// not approximate: swapping, checkpointing and degrading must never
// change a verdict the serial reference would not have produced.
#include "serve/resilience.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/deployment.hpp"
#include "core/online_detector.hpp"
#include "ml/registry.hpp"
#include "serve/stream_engine.hpp"
#include "tests/ml/synthetic_data.hpp"
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

/// P(malware) = 1 - first counter: distinguishable from StubModel on
/// every window, so a verdict betrays which epoch scored it.
class InverseModel final : public StubModel {
 public:
  std::vector<double> distribution(
      std::span<const double> f) const override {
    return {f[0], 1.0 - f[0]};
  }
  std::string name() const override { return "Inverse"; }
};

/// P(malware) = first counter / 2 — the recognizable fallback.
class HalfModel final : public StubModel {
 public:
  std::vector<double> distribution(
      std::span<const double> f) const override {
    return {1.0 - f[0] * 0.5, f[0] * 0.5};
  }
  std::string name() const override { return "Half"; }
};

/// Batch scoring always throws.
class FailingModel final : public StubModel {
 public:
  void distribution_batch(std::span<const double>, std::size_t,
                          std::span<double>) const override {
    throw Error("FailingModel: scoring exploded");
  }
};

/// Stalls every batch well past any reasonable latency budget.
class SlowModel final : public StubModel {
 public:
  void distribution_batch(std::span<const double> flat,
                          std::size_t window_size,
                          std::span<double> out) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    StubModel::distribution_batch(flat, window_size, out);
  }
};

/// Fails its first `failures` batch calls, then scores like StubModel.
class FlakyModel final : public StubModel {
 public:
  explicit FlakyModel(int failures) : remaining_(failures) {}
  void distribution_batch(std::span<const double> flat,
                          std::size_t window_size,
                          std::span<double> out) const override {
    if (remaining_.fetch_sub(1, std::memory_order_relaxed) > 0)
      throw Error("FlakyModel: still warming up");
    StubModel::distribution_batch(flat, window_size, out);
  }

 private:
  mutable std::atomic<int> remaining_;
};

std::vector<std::vector<double>> make_stream_windows(
    std::uint64_t stream_seed, std::size_t num_windows, std::size_t width) {
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
    EXPECT_EQ(actual[w].probability, expected[w].probability)
        << label << " window " << w;
    EXPECT_EQ(actual[w].flagged, expected[w].flagged)
        << label << " window " << w;
    EXPECT_EQ(actual[w].alarm, expected[w].alarm)
        << label << " window " << w;
  }
}

/// Current value of a serve.resilience.* counter (for before/after deltas
/// — the registry is process-wide and survives across tests).
std::uint64_t res_counter(const std::string& name) {
  return metrics().counter("serve.resilience." + name).value();
}

/// A serialized v2 deployment bundle (primary + fallback) for hot-swap
/// tests — the same artifact hmd_train --bundle --fallback writes.
std::string serialized_v2_bundle() {
  const ml::Dataset data = ml::testdata::separable_binary(120);
  auto model = ml::make_classifier("MLR");
  model->train(data);
  auto fallback = ml::make_classifier("OneR");
  fallback->train(data);
  const core::DeploymentBundle bundle(std::move(model), std::move(fallback),
                                      {}, {});
  std::ostringstream out;
  core::save_bundle(out, bundle);
  return out.str();
}

// ---------------------------------------------------------------------------
// ModelHub
// ---------------------------------------------------------------------------

TEST(ModelHub, VersionsEpochsAndValidatesModels) {
  ModelHub hub;
  EXPECT_EQ(hub.version(), 0u);
  EXPECT_EQ(hub.current(), nullptr);

  auto primary = std::make_shared<StubModel>();
  EXPECT_EQ(hub.publish(primary), 1u);
  EXPECT_EQ(hub.version(), 1u);
  EXPECT_EQ(hub.current()->primary.get(), primary.get());
  EXPECT_EQ(hub.current()->fallback, nullptr);

  EXPECT_EQ(hub.publish(std::make_shared<InverseModel>(),
                        std::make_shared<HalfModel>()),
            2u);
  EXPECT_EQ(hub.current()->version, 2u);
  EXPECT_NE(hub.current()->fallback, nullptr);

  EXPECT_THROW(hub.publish(nullptr), PreconditionError);
  const auto untrained = ml::make_classifier("MLR");
  EXPECT_THROW(hub.publish_unowned(*untrained), PreconditionError);
  EXPECT_EQ(hub.version(), 2u);  // failed publishes leave the epoch alone
}

TEST(ModelHub, CurrentPinsEpochAcrossSwap) {
  ModelHub hub;
  hub.publish(std::make_shared<StubModel>());
  const auto pinned = hub.current();
  hub.publish(std::make_shared<InverseModel>());
  // The old epoch (and its model) stays alive while pinned.
  EXPECT_EQ(pinned->version, 1u);
  EXPECT_EQ(pinned->primary->name(), "Stub");
  EXPECT_EQ(hub.current()->version, 2u);
}

TEST(ModelHub, PublishFromStreamLoadsV2Bundle) {
  ModelHub hub;
  std::istringstream in(serialized_v2_bundle());
  const Result<std::uint64_t> version = hub.publish_from_stream(in);
  ASSERT_TRUE(version.ok()) << version.error().to_string();
  EXPECT_EQ(version.value(), 1u);
  const auto epoch = hub.current();
  ASSERT_NE(epoch, nullptr);
  EXPECT_EQ(epoch->primary->num_classes(), 2u);
  ASSERT_NE(epoch->fallback, nullptr);
  EXPECT_EQ(epoch->fallback->name(), "OneR");
}

TEST(ModelHub, CorruptBundleSwapKeepsPreviousEpochServing) {
  ModelHub hub;
  hub.publish(std::make_shared<StubModel>());
  const auto before = hub.current();

  std::istringstream garbage("this is not a bundle\n");
  const Result<std::uint64_t> swapped = hub.publish_from_stream(garbage);
  ASSERT_FALSE(swapped.ok());
  EXPECT_EQ(swapped.error().code(), ErrCode::kParse);
  EXPECT_NE(swapped.error().to_string().find("hot-swap rejected"),
            std::string::npos);
  EXPECT_NE(swapped.error().to_string().find("loading deployment bundle"),
            std::string::npos);

  // The bad push changed nothing: same epoch object, same version.
  EXPECT_EQ(hub.version(), 1u);
  EXPECT_EQ(hub.current(), before);
}

// ---------------------------------------------------------------------------
// EngineSnapshot format
// ---------------------------------------------------------------------------

EngineSnapshot sample_snapshot() {
  EngineSnapshot snap;
  snap.model_version = 3;
  StreamSnapshot calm;
  calm.id = 7;
  calm.accepted = 120;
  calm.evicted = 4;
  calm.high_water = 17;
  calm.detector = {.windows = 116, .flagged = 30, .streak = 2};
  StreamSnapshot alarmed;
  alarmed.id = 8;
  alarmed.accepted = 50;
  alarmed.high_water = 3;
  alarmed.detector = {.windows = 50,
                      .flagged = 12,
                      .streak = 0,
                      .alarmed = true,
                      .alarm_window = 31};
  snap.streams = {calm, alarmed};
  snap.tier.present = true;
  snap.tier.name = "q16";
  return snap;
}

TEST(EngineSnapshotFormat, WriteReadRoundTrip) {
  const EngineSnapshot original = sample_snapshot();
  std::ostringstream out;
  original.write(out);
  EXPECT_EQ(out.str().rfind("hmd-snapshot v1\n", 0), 0u);

  std::istringstream in(out.str());
  const Result<EngineSnapshot> loaded = EngineSnapshot::read(in);
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  const EngineSnapshot& snap = loaded.value();
  EXPECT_EQ(snap.model_version, 3u);
  ASSERT_EQ(snap.streams.size(), 2u);
  EXPECT_EQ(snap.streams[0].id, 7u);
  EXPECT_EQ(snap.streams[0].accepted, 120u);
  EXPECT_EQ(snap.streams[0].evicted, 4u);
  EXPECT_EQ(snap.streams[0].high_water, 17u);
  EXPECT_EQ(snap.streams[0].detector.windows, 116u);
  EXPECT_EQ(snap.streams[0].detector.flagged, 30u);
  EXPECT_EQ(snap.streams[0].detector.streak, 2u);
  EXPECT_FALSE(snap.streams[0].detector.alarmed);
  EXPECT_EQ(snap.streams[0].detector.alarm_window,
            OnlineDetector::kNoAlarm);
  EXPECT_TRUE(snap.streams[1].detector.alarmed);
  EXPECT_EQ(snap.streams[1].detector.alarm_window, 31u);
  EXPECT_TRUE(snap.tier.present);
  EXPECT_EQ(snap.tier.name, "q16");

  // Snapshots written before the tier layer (no trailing section) load
  // fine and stay unpinned.
  EngineSnapshot legacy = sample_snapshot();
  legacy.tier = {};
  std::ostringstream legacy_out;
  legacy.write(legacy_out);
  std::istringstream legacy_in(legacy_out.str());
  const Result<EngineSnapshot> reloaded = EngineSnapshot::read(legacy_in);
  ASSERT_TRUE(reloaded.ok()) << reloaded.error().to_string();
  EXPECT_FALSE(reloaded.value().tier.present);
}

// Counts are unsigned decimal: a sign or an overflow is a parse error at
// its line and field, and a stream count larger than the file fails at
// the end of input without sizing anything first.
TEST(EngineSnapshotFormat, RejectsSignedAndOversizedCountsNamingLineAndField) {
  const std::string head = "hmd-snapshot v1\nmodel_version 1\n";
  const std::string stream_line =
      "stream 1 accepted 5 evicted 0 high_water 1 windows 5 flagged 2 "
      "streak 1 alarmed 0 alarm_window -\n";
  struct Case {
    const char* what;
    std::string text;
    const char* where;
  };
  const std::vector<Case> cases = {
      {"negative stream id and accepted count",
       head + "streams 1\nstream -1 accepted -5 evicted 0 high_water 0 "
              "windows 0 flagged 0 streak 0 alarmed 0 alarm_window -\n",
       "snapshot: line 4: 'stream': "},
      {"stream count far beyond the file",
       head + "streams 4611686018427387904\n" + stream_line,
       "snapshot: line 5: 'stream': "},
      {"model version past 2^64 - 1",
       "hmd-snapshot v1\nmodel_version 18446744073709551616\nstreams 0\n",
       "snapshot: line 2: 'model_version': "},
  };
  for (const Case& c : cases) {
    std::istringstream in(c.text);
    const Result<EngineSnapshot> r = EngineSnapshot::read(in);
    ASSERT_FALSE(r.ok()) << c.what;
    EXPECT_EQ(r.error().code(), ErrCode::kParse) << c.what;
    EXPECT_EQ(r.error().message().rfind(c.where, 0), 0u)
        << c.what << ": " << r.error().message();
  }
}

TEST(EngineSnapshotFormat, ReadRejectsMalformedInput) {
  auto expect_parse_error = [](const std::string& text,
                               const std::string& label) {
    std::istringstream in(text);
    const Result<EngineSnapshot> r = EngineSnapshot::read(in);
    ASSERT_FALSE(r.ok()) << label;
    EXPECT_EQ(r.error().code(), ErrCode::kParse) << label;
    EXPECT_NE(r.error().to_string().find("reading engine snapshot"),
              std::string::npos)
        << label;
  };

  expect_parse_error("hmd-snapshot v9\n", "bad header");
  expect_parse_error("hmd-snapshot v1\nmodel_version 1\nstreams 2\n",
                     "truncated stream list");
  expect_parse_error(
      "hmd-snapshot v1\nmodel_version 1\nstreams 1\n"
      "stream 1 accepted 5 evicted 0 high_water 1 windows 5 flagged 9 "
      "streak 0 alarmed 0 alarm_window -\n",
      "flagged > windows");
  expect_parse_error(
      "hmd-snapshot v1\nmodel_version 1\nstreams 1\n"
      "stream 1 accepted 5 evicted 0 high_water 1 windows 5 flagged 2 "
      "streak 1 alarmed 1 alarm_window -\n",
      "alarmed without alarm window");
  expect_parse_error(
      "hmd-snapshot v1\nmodel_version 1\nstreams 1\n"
      "stream 1 accepted 5 evicted 0 high_water 1 windows 5 flagged 2 "
      "streak 1 alarmed 0 alarm_window - extra\n",
      "trailing tokens");
  expect_parse_error(
      "hmd-snapshot v1\nmodel_version 1\nstreams 1\n"
      "stream 1 accepted 5 evicted 0 high_water 1 windows 5 flagged 2 "
      "streak 1 alarmed 0 alarm_window -\n"
      "tier\n",
      "tier without a name");
  expect_parse_error(
      "hmd-snapshot v1\nmodel_version 1\nstreams 1\n"
      "stream 1 accepted 5 evicted 0 high_water 1 windows 5 flagged 2 "
      "streak 1 alarmed 0 alarm_window -\n"
      "tear int8\n",
      "unknown optional section");

  std::istringstream throwing("junk\n");
  EXPECT_THROW((void)EngineSnapshot::read_or_throw(throwing), ParseError);
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

TEST(FaultInjector, ScheduleIsAPureFunctionOfThePlan) {
  FaultPlan plan;
  plan.seed = 0xfau;
  plan.score_throw_rate = 0.3;
  plan.slow_batch_rate = 0.2;
  plan.slow_batch_us = 1;
  FaultInjector a(plan);
  FaultInjector b(plan);
  std::size_t throwing = 0, slow = 0;
  for (std::size_t shard = 0; shard < 3; ++shard) {
    for (std::uint64_t ordinal = 0; ordinal < 200; ++ordinal) {
      EXPECT_EQ(a.batch_throws(shard, ordinal),
                b.batch_throws(shard, ordinal));
      EXPECT_EQ(a.batch_is_slow(shard, ordinal),
                b.batch_is_slow(shard, ordinal));
      throwing += a.batch_throws(shard, ordinal) ? 1 : 0;
      slow += a.batch_is_slow(shard, ordinal) ? 1 : 0;
    }
  }
  // The rates actually bite (600 draws at 0.3/0.2 cannot round to zero).
  EXPECT_GT(throwing, 0u);
  EXPECT_LT(throwing, 600u);
  EXPECT_GT(slow, 0u);

  // A different seed yields a different schedule somewhere.
  FaultPlan other = plan;
  other.seed = 0xfbu;
  FaultInjector c(other);
  bool differs = false;
  for (std::uint64_t ordinal = 0; ordinal < 200 && !differs; ++ordinal)
    differs = a.batch_throws(0, ordinal) != c.batch_throws(0, ordinal);
  EXPECT_TRUE(differs);
}

TEST(FaultInjector, ThrowBurstOnlyFaultsLeadingAttempts) {
  FaultPlan plan;
  plan.seed = 1;
  plan.score_throw_rate = 1.0;  // every batch faulted
  plan.throw_burst = 2;
  FaultInjector inj(plan);
  EXPECT_THROW(inj.on_score_attempt(0, 0, 0), InjectedFault);
  EXPECT_THROW(inj.on_score_attempt(0, 0, 1), InjectedFault);
  EXPECT_NO_THROW(inj.on_score_attempt(0, 0, 2));  // retries win
  EXPECT_EQ(inj.throws_injected(), 2u);
}

TEST(FaultInjector, FailFirstBatchesFaultEveryAttempt) {
  FaultPlan plan;
  plan.seed = 1;
  plan.fail_first_batches = 2;
  FaultInjector inj(plan);
  for (std::size_t attempt = 0; attempt < 5; ++attempt) {
    EXPECT_THROW(inj.on_score_attempt(0, 0, attempt), InjectedFault);
    EXPECT_THROW(inj.on_score_attempt(0, 1, attempt), InjectedFault);
  }
  EXPECT_NO_THROW(inj.on_score_attempt(0, 2, 0));  // past the burn-in
}

TEST(FaultPlan, ValidateRejectsBadRates) {
  FaultPlan plan;
  plan.score_throw_rate = 1.5;
  EXPECT_THROW(plan.validate(), PreconditionError);
  plan = {};
  plan.slow_batch_rate = -0.1;
  EXPECT_THROW(plan.validate(), PreconditionError);
  plan = {};
  plan.throw_burst = 0;
  EXPECT_THROW(plan.validate(), PreconditionError);
}

// ---------------------------------------------------------------------------
// Hot-swap through the engine
// ---------------------------------------------------------------------------

TEST(StreamEngine, HotSwapStampsVerdictVersions) {
  auto hub = std::make_shared<ModelHub>();
  hub->publish(std::make_shared<StubModel>());

  ServeConfig config;
  config.window_size = 1;
  config.record_verdicts = true;
  config.policy = {.flag_threshold = 0.9, .confirm_windows = 2};
  StreamEngine engine(hub, config);
  auto* stream = engine.register_stream(42);

  const auto phase1 = make_stream_windows(31, 80, 1);
  const auto phase2 = make_stream_windows(32, 80, 1);
  for (const auto& w : phase1) engine.ingest(stream, w);
  engine.drain();
  hub->publish(std::make_shared<InverseModel>());
  for (const auto& w : phase2) engine.ingest(stream, w);
  engine.drain();

  const auto& verdicts = engine.verdicts(stream);
  const auto& versions = engine.verdict_versions(stream);
  ASSERT_EQ(verdicts.size(), phase1.size() + phase2.size());
  ASSERT_EQ(versions.size(), verdicts.size());

  // Version stamps split exactly at the drain/swap boundary, and each
  // verdict's probability is the stamped epoch's model applied to the
  // window — bit-identical, with the detector state machine carried
  // straight across the swap.
  StubModel replay_model;
  OnlineDetector reference(replay_model, config.policy);
  for (std::size_t w = 0; w < verdicts.size(); ++w) {
    const bool before_swap = w < phase1.size();
    EXPECT_EQ(versions[w], before_swap ? 1u : 2u) << "window " << w;
    const double x =
        before_swap ? phase1[w][0] : phase2[w - phase1.size()][0];
    const double expected_p = before_swap ? x : 1.0 - x;
    EXPECT_EQ(verdicts[w].probability, expected_p) << "window " << w;
    const auto expected = reference.apply_probability(expected_p);
    EXPECT_EQ(verdicts[w].flagged, expected.flagged) << "window " << w;
    EXPECT_EQ(verdicts[w].alarm, expected.alarm) << "window " << w;
  }
  engine.shutdown();
}

TEST(StreamEngine, SwapUnderLiveTrafficIsAtomicPerBatch) {
  const std::uint64_t swaps_before = res_counter("swaps_observed");
  auto hub = std::make_shared<ModelHub>();
  hub->publish(std::make_shared<StubModel>());

  ServeConfig config;
  config.window_size = 1;
  config.num_shards = 2;
  config.ring_capacity = 64;
  config.record_verdicts = true;
  config.policy = {.flag_threshold = 0.9, .confirm_windows = 2};
  StreamEngine engine(hub, config);

  constexpr std::size_t kStreams = 4;
  constexpr std::size_t kWindows = 600;
  std::vector<StreamEngine::StreamHandle> handles;
  std::vector<std::vector<std::vector<double>>> workload;
  for (std::size_t s = 0; s < kStreams; ++s) {
    handles.push_back(engine.register_stream(s));
    workload.push_back(make_stream_windows(700 + s, kWindows, 1));
  }

  // The feeder pauses halfway so the swap provably lands mid-stream; the
  // first half's windows are still in flight (ring capacity 64 << 300
  // windows/stream forces the workers to score during ingest), so batches
  // on both sides of the publish race it for real.
  std::atomic<bool> half_done{false};
  std::atomic<bool> swapped{false};
  std::thread feeder([&] {
    for (std::size_t w = 0; w < kWindows; ++w) {
      if (w == kWindows / 2) {
        half_done.store(true, std::memory_order_release);
        while (!swapped.load(std::memory_order_acquire))
          std::this_thread::yield();
      }
      for (std::size_t s = 0; s < kStreams; ++s)
        engine.ingest(handles[s], workload[s][w]);
    }
  });
  while (!half_done.load(std::memory_order_acquire)) std::this_thread::yield();
  hub->publish(std::make_shared<InverseModel>());
  swapped.store(true, std::memory_order_release);
  feeder.join();
  engine.drain();

  for (std::size_t s = 0; s < kStreams; ++s) {
    const auto& verdicts = engine.verdicts(handles[s]);
    const auto& versions = engine.verdict_versions(handles[s]);
    ASSERT_EQ(verdicts.size(), kWindows);
    ASSERT_EQ(versions.size(), kWindows);
    StubModel replay_model;
    OnlineDetector reference(replay_model, config.policy);
    for (std::size_t w = 0; w < kWindows; ++w) {
      // A stream only ever moves forward through epochs...
      if (w > 0) EXPECT_GE(versions[w], versions[w - 1]) << "window " << w;
      ASSERT_TRUE(versions[w] == 1u || versions[w] == 2u);
      // ...and each verdict is exactly the stamped model's output.
      const double x = workload[s][w][0];
      const double expected_p = versions[w] == 1u ? x : 1.0 - x;
      EXPECT_EQ(verdicts[w].probability, expected_p)
          << "stream " << s << " window " << w;
      const auto expected = reference.apply_probability(expected_p);
      EXPECT_EQ(verdicts[w].flagged, expected.flagged);
      EXPECT_EQ(verdicts[w].alarm, expected.alarm);
    }
    EXPECT_EQ(versions.back(), 2u);  // the swap landed before drain
  }
  EXPECT_GT(res_counter("swaps_observed"), swaps_before);
  engine.shutdown();
}

TEST(StreamEngine, CorruptHotSwapLeavesEngineServing) {
  auto hub = std::make_shared<ModelHub>();
  hub->publish(std::make_shared<StubModel>());

  ServeConfig config;
  config.window_size = 1;
  config.record_verdicts = true;
  config.policy = {.flag_threshold = 0.9, .confirm_windows = 2};
  StreamEngine engine(hub, config);
  auto* stream = engine.register_stream(9);

  std::istringstream garbage("hmd-bundle v7 nope\n");
  ASSERT_FALSE(engine.hub().publish_from_stream(garbage).ok());

  const auto windows = make_stream_windows(51, 120, 1);
  for (const auto& w : windows) engine.ingest(stream, w);
  engine.drain();

  StubModel model;
  expect_verdicts_identical(engine.verdicts(stream),
                            serial_replay(model, config.policy, windows),
                            "after corrupt swap");
  for (const std::uint64_t v : engine.verdict_versions(stream))
    EXPECT_EQ(v, 1u);
  EXPECT_FALSE(engine.last_error().has_value());
  engine.shutdown();
}

// ---------------------------------------------------------------------------
// Checkpoint / restore
// ---------------------------------------------------------------------------

TEST(StreamEngine, CheckpointRestoreContinuesBitIdentically) {
  // Property test across seeds: stop an engine mid-workload, checkpoint,
  // restore into a fresh engine, finish the workload — verdicts and final
  // monitor state must equal an uninterrupted run exactly.
  StubModel model;
  const OnlineDetectorConfig policy{.flag_threshold = 0.9,
                                    .confirm_windows = 2};
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u, 15u}) {
    Rng shape(seed);
    constexpr std::size_t kStreams = 5;
    std::vector<std::vector<std::vector<double>>> workload;
    std::vector<std::size_t> cut(kStreams);
    for (std::size_t s = 0; s < kStreams; ++s) {
      const auto count =
          static_cast<std::size_t>(shape.uniform_int(20, 120));
      workload.push_back(make_stream_windows(seed * 100 + s, count, 1));
      cut[s] = static_cast<std::size_t>(shape.uniform_index(count + 1));
    }

    ServeConfig config;
    config.window_size = 1;
    config.num_shards = 2;
    config.record_verdicts = true;
    config.policy = policy;

    // Uninterrupted reference run.
    StreamEngine reference(model, config);
    std::vector<StreamEngine::StreamHandle> ref_handles;
    for (std::size_t s = 0; s < kStreams; ++s)
      ref_handles.push_back(reference.register_stream(s));
    for (std::size_t s = 0; s < kStreams; ++s)
      for (const auto& w : workload[s])
        reference.ingest(ref_handles[s], w);
    reference.drain();

    // First half, checkpointed through the text format.
    std::string checkpoint_text;
    {
      StreamEngine first(model, config);
      std::vector<StreamEngine::StreamHandle> handles;
      for (std::size_t s = 0; s < kStreams; ++s)
        handles.push_back(first.register_stream(s));
      for (std::size_t s = 0; s < kStreams; ++s)
        for (std::size_t w = 0; w < cut[s]; ++w)
          first.ingest(handles[s], workload[s][w]);
      first.drain();
      std::ostringstream out;
      first.checkpoint(out);
      checkpoint_text = out.str();
      first.shutdown();
    }

    // Second half on a restored engine.
    std::istringstream in(checkpoint_text);
    Result<EngineSnapshot> snap = EngineSnapshot::read(in);
    ASSERT_TRUE(snap.ok()) << snap.error().to_string();
    ServeConfig resumed_config = config;
    resumed_config.restore_from =
        std::make_shared<const EngineSnapshot>(std::move(snap).value());
    const std::uint64_t restored_before = res_counter("restored_streams");
    StreamEngine resumed(model, resumed_config);
    std::vector<StreamEngine::StreamHandle> handles;
    for (std::size_t s = 0; s < kStreams; ++s)
      handles.push_back(resumed.register_stream(s));
    EXPECT_EQ(res_counter("restored_streams"), restored_before + kStreams);
    for (std::size_t s = 0; s < kStreams; ++s)
      for (std::size_t w = cut[s]; w < workload[s].size(); ++w)
        resumed.ingest(handles[s], workload[s][w]);
    resumed.drain();

    for (std::size_t s = 0; s < kStreams; ++s) {
      const std::string label = "seed " + std::to_string(seed) +
                                " stream " + std::to_string(s);
      // The resumed log holds only post-checkpoint verdicts; they must
      // equal the reference run's tail exactly.
      const auto& full = reference.verdicts(ref_handles[s]);
      const std::vector<OnlineDetector::Verdict> tail(
          full.begin() + static_cast<std::ptrdiff_t>(cut[s]), full.end());
      expect_verdicts_identical(resumed.verdicts(handles[s]), tail, label);

      const auto& want = reference.monitor(ref_handles[s]);
      const auto& got = resumed.monitor(handles[s]);
      EXPECT_EQ(got.windows_seen(), want.windows_seen()) << label;
      EXPECT_EQ(got.alarmed(), want.alarmed()) << label;
      EXPECT_EQ(got.alarm_window(), want.alarm_window()) << label;
      EXPECT_DOUBLE_EQ(got.flag_rate(), want.flag_rate()) << label;
      // Accounting counters carried across the restart.
      EXPECT_EQ(resumed.ingested(handles[s]), workload[s].size()) << label;
    }
    resumed.shutdown();
    reference.shutdown();
  }
}

TEST(StreamEngine, RestoreClaimsDuplicateIdsFirstCome) {
  StubModel model;
  EngineSnapshot snap;
  snap.model_version = 1;
  StreamSnapshot a;
  a.id = 5;
  a.accepted = 10;
  a.detector = {.windows = 10, .flagged = 3, .streak = 1};
  StreamSnapshot b;
  b.id = 5;
  b.accepted = 20;
  b.detector = {.windows = 20, .flagged = 6, .streak = 2};
  snap.streams = {a, b};

  ServeConfig config;
  config.window_size = 1;
  config.restore_from = std::make_shared<const EngineSnapshot>(snap);
  StreamEngine engine(model, config);
  auto* first = engine.register_stream(5);
  auto* second = engine.register_stream(5);
  auto* third = engine.register_stream(5);  // nothing left to claim
  EXPECT_EQ(engine.monitor(first).windows_seen(), 10u);
  EXPECT_EQ(engine.monitor(second).windows_seen(), 20u);
  EXPECT_EQ(engine.monitor(third).windows_seen(), 0u);
  EXPECT_EQ(engine.ingested(first), 10u);
  EXPECT_EQ(engine.ingested(second), 20u);
  engine.shutdown();
}

// ---------------------------------------------------------------------------
// Degradation ladder
// ---------------------------------------------------------------------------

TEST(StreamEngine, FallbackServesWhenPrimaryAlwaysFails) {
  const std::uint64_t fallback_before = res_counter("fallback_batches");
  const std::uint64_t degrade_before = res_counter("degrade_events");
  auto hub = std::make_shared<ModelHub>();
  hub->publish(std::make_shared<FailingModel>(),
               std::make_shared<StubModel>());

  ServeConfig config;
  config.window_size = 1;
  config.record_verdicts = true;
  config.policy = {.flag_threshold = 0.9, .confirm_windows = 2};
  config.resilience.max_retries = 0;
  config.resilience.retry_backoff_us = 0;
  config.resilience.degrade_after = 1;
  config.resilience.probe_every = 1u << 20;  // never probe in this test
  StreamEngine engine(hub, config);
  auto* stream = engine.register_stream(17);

  const auto windows = make_stream_windows(61, 200, 1);
  for (const auto& w : windows) engine.ingest(stream, w);
  engine.drain();  // must NOT throw: the fallback absorbed every batch

  StubModel fallback;
  expect_verdicts_identical(engine.verdicts(stream),
                            serial_replay(fallback, config.policy, windows),
                            "fallback determinism");
  EXPECT_TRUE(engine.shard_degraded(engine.shard_of(17)));
  EXPECT_FALSE(engine.last_error().has_value());
  EXPECT_GT(res_counter("fallback_batches"), fallback_before);
  EXPECT_GT(res_counter("degrade_events"), degrade_before);
  engine.shutdown();
}

TEST(StreamEngine, NoFallbackLatchesErrorValue) {
  FailingModel model;
  ServeConfig config;
  config.window_size = 1;
  config.resilience.retry_backoff_us = 0;
  StreamEngine engine(model, config);
  auto* stream = engine.register_stream(3);
  for (int i = 0; i < 10; ++i)
    engine.ingest(stream, std::vector<double>{0.5});
  EXPECT_THROW(engine.drain(), Error);

  const std::optional<ErrorInfo> error = engine.last_error();
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code(), ErrCode::kInternal);
  EXPECT_NE(error->to_string().find("scoring batch on shard"),
            std::string::npos);
  EXPECT_NE(error->to_string().find("FailingModel"), std::string::npos);
  EXPECT_THROW(engine.shutdown(), Error);
}

TEST(StreamEngine, DestructorRecordsSwallowedError) {
  const std::uint64_t swallowed_before = res_counter("errors_swallowed");
  {
    FailingModel model;
    ServeConfig config;
    config.window_size = 1;
    config.resilience.retry_backoff_us = 0;
    StreamEngine engine(model, config);
    auto* stream = engine.register_stream(1);
    engine.ingest(stream, std::vector<double>{0.5});
    // Wait for the worker to latch the failure, then drop the engine
    // without ever calling drain()/shutdown().
    while (!engine.last_error().has_value())
      std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_EQ(res_counter("errors_swallowed"), swallowed_before + 1);
}

TEST(StreamEngine, LatencyBudgetDegradesToFallback) {
  const std::uint64_t overruns_before = res_counter("budget_overruns");
  auto hub = std::make_shared<ModelHub>();
  hub->publish(std::make_shared<SlowModel>(), std::make_shared<HalfModel>());

  ServeConfig config;
  config.window_size = 1;
  config.record_verdicts = true;
  config.policy = {.flag_threshold = 0.9, .confirm_windows = 2};
  config.resilience.latency_budget_us = 50;  // SlowModel takes ~2000us
  config.resilience.budget_strikes = 1;
  config.resilience.degrade_after = 1u << 20;  // only the budget degrades
  config.resilience.probe_every = 1u << 20;
  StreamEngine engine(hub, config);
  auto* stream = engine.register_stream(23);

  // Round 1: scored by the (slow) primary; blows the budget and degrades.
  engine.ingest(stream, std::vector<double>{0.8});
  engine.drain();
  EXPECT_TRUE(engine.shard_degraded(engine.shard_of(23)));
  EXPECT_GT(res_counter("budget_overruns"), overruns_before);
  ASSERT_EQ(engine.verdicts(stream).size(), 1u);
  EXPECT_EQ(engine.verdicts(stream)[0].probability, 0.8);  // primary

  // Round 2: the degraded shard scores on the fallback (P = x/2).
  engine.ingest(stream, std::vector<double>{0.8});
  engine.drain();
  ASSERT_EQ(engine.verdicts(stream).size(), 2u);
  EXPECT_EQ(engine.verdicts(stream)[1].probability, 0.4);  // fallback
  engine.shutdown();
}

TEST(StreamEngine, ProbeRecoversOntoHealedPrimary) {
  const std::uint64_t recoveries_before = res_counter("recoveries");
  auto hub = std::make_shared<ModelHub>();
  hub->publish(std::make_shared<FlakyModel>(3),  // heals on the 4th call
               std::make_shared<HalfModel>());

  ServeConfig config;
  config.num_shards = 1;
  config.window_size = 1;
  config.record_verdicts = true;
  config.policy = {.flag_threshold = 0.9, .confirm_windows = 2};
  config.resilience.max_retries = 0;
  config.resilience.retry_backoff_us = 0;
  config.resilience.degrade_after = 1;
  config.resilience.probe_every = 1;  // probe every degraded batch
  StreamEngine engine(hub, config);
  auto* stream = engine.register_stream(2);

  // One window per drain cycle = exactly one batch per step, so the
  // ladder walk is fully deterministic:
  //   batch 0: primary fails -> fallback, degrade
  //   batch 1: probe fails   -> fallback
  //   batch 2: probe fails   -> fallback
  //   batch 3: probe succeeds -> recover, scored by primary
  //   batch 4: normal mode, primary
  const double x = 0.6;
  const std::vector<double> expected_p = {0.3, 0.3, 0.3, 0.6, 0.6};
  for (std::size_t step = 0; step < expected_p.size(); ++step) {
    engine.ingest(stream, std::vector<double>{x});
    engine.drain();
  }
  const auto& verdicts = engine.verdicts(stream);
  ASSERT_EQ(verdicts.size(), expected_p.size());
  for (std::size_t w = 0; w < expected_p.size(); ++w)
    EXPECT_EQ(verdicts[w].probability, expected_p[w]) << "batch " << w;
  EXPECT_FALSE(engine.shard_degraded(0));
  EXPECT_EQ(res_counter("recoveries"), recoveries_before + 1);
  EXPECT_FALSE(engine.last_error().has_value());
  engine.shutdown();
}

TEST(StreamEngine, FailFirstBatchesWalkTheWholeLadderDeterministically) {
  // Injected burn-in faults (not a broken model): the first two batches
  // exhaust their retries, degrading the shard; the first probe recovers
  // it. HalfModel as fallback makes every rung visible in the verdicts.
  auto injector = std::make_shared<FaultInjector>(FaultPlan{
      .seed = 7, .fail_first_batches = 2});
  auto hub = std::make_shared<ModelHub>();
  hub->publish(std::make_shared<StubModel>(), std::make_shared<HalfModel>());

  ServeConfig config;
  config.num_shards = 1;
  config.window_size = 1;
  config.record_verdicts = true;
  config.policy = {.flag_threshold = 0.9, .confirm_windows = 2};
  config.resilience.max_retries = 1;
  config.resilience.retry_backoff_us = 0;
  config.resilience.degrade_after = 2;
  config.resilience.probe_every = 4;
  config.resilience.faults = injector;
  StreamEngine engine(hub, config);
  auto* stream = engine.register_stream(4);

  //   batch 0: faulted every attempt -> fallback      (failures = 1)
  //   batch 1: faulted every attempt -> fallback      (failures = 2, degrade)
  //   batch 2-4: degraded, no probe  -> fallback
  //   batch 5: probe (4th degraded batch) succeeds -> primary, recover
  //   batch 6: normal mode           -> primary
  const double x = 0.8;
  const std::vector<double> expected_p = {0.4, 0.4, 0.4, 0.4, 0.4,
                                          0.8, 0.8};
  for (std::size_t step = 0; step < expected_p.size(); ++step) {
    engine.ingest(stream, std::vector<double>{x});
    engine.drain();
  }
  const auto& verdicts = engine.verdicts(stream);
  ASSERT_EQ(verdicts.size(), expected_p.size());
  for (std::size_t w = 0; w < expected_p.size(); ++w)
    EXPECT_EQ(verdicts[w].probability, expected_p[w]) << "batch " << w;
  EXPECT_FALSE(engine.shard_degraded(0));
  EXPECT_GT(injector->throws_injected(), 0u);
  engine.shutdown();
}

// ---------------------------------------------------------------------------
// Soaks (the TSan CI job runs this suite for race coverage)
// ---------------------------------------------------------------------------

TEST(ResilienceSoak, ConcurrentSnapshotWhileIngesting) {
  StubModel model;
  ServeConfig config;
  config.window_size = 1;
  config.num_shards = 2;
  config.ring_capacity = 32;
  config.record_verdicts = true;
  config.policy = {.flag_threshold = 0.9, .confirm_windows = 2};
  StreamEngine engine(model, config);

  constexpr std::size_t kFeeders = 3;
  constexpr std::size_t kStreamsPerFeeder = 4;
  constexpr std::size_t kStreams = kFeeders * kStreamsPerFeeder;
  constexpr std::size_t kWindows = 400;
  std::vector<StreamEngine::StreamHandle> handles;
  std::vector<std::vector<std::vector<double>>> workload;
  for (std::size_t s = 0; s < kStreams; ++s) {
    handles.push_back(engine.register_stream(300 + s));
    workload.push_back(make_stream_windows(900 + s, kWindows, 1));
  }

  // Snapshot continuously while traffic is live; every captured cut must
  // be internally consistent and serialize/parse cleanly. Feeders hold
  // off until the snapshotter runs, so a fast feed cannot finish before
  // the first snapshot starts.
  std::atomic<bool> feeding{true};
  std::atomic<bool> snapshotting{false};
  std::size_t snapshots_taken = 0;
  std::thread snapshotter([&] {
    while (feeding.load(std::memory_order_relaxed)) {
      snapshotting.store(true, std::memory_order_release);
      const EngineSnapshot snap = engine.snapshot();
      EXPECT_EQ(snap.streams.size(), kStreams);
      for (const StreamSnapshot& s : snap.streams) {
        EXPECT_LE(s.detector.flagged, s.detector.windows);
        EXPECT_LE(s.detector.streak, s.detector.flagged);
        EXPECT_LE(s.detector.windows, s.accepted);
        EXPECT_EQ(s.detector.alarmed,
                  s.detector.alarm_window != OnlineDetector::kNoAlarm);
      }
      std::ostringstream out;
      snap.write(out);
      std::istringstream in(out.str());
      EXPECT_TRUE(EngineSnapshot::read(in).ok());
      ++snapshots_taken;
    }
  });
  std::vector<std::thread> feeders;
  for (std::size_t f = 0; f < kFeeders; ++f)
    feeders.emplace_back([&, f] {
      while (!snapshotting.load(std::memory_order_acquire))
        std::this_thread::yield();
      for (std::size_t w = 0; w < kWindows; ++w)
        for (std::size_t j = 0; j < kStreamsPerFeeder; ++j) {
          const std::size_t s = f * kStreamsPerFeeder + j;
          engine.ingest(handles[s], workload[s][w]);
        }
    });
  for (auto& t : feeders) t.join();
  feeding.store(false, std::memory_order_relaxed);
  snapshotter.join();
  engine.drain();
  EXPECT_GT(snapshots_taken, 0u);

  // Live snapshots never perturbed the verdict stream.
  for (std::size_t s = 0; s < kStreams; ++s)
    expect_verdicts_identical(
        engine.verdicts(handles[s]),
        serial_replay(model, config.policy, workload[s]),
        "snapshot soak stream " + std::to_string(s));
  engine.shutdown();
}

TEST(ResilienceSoak, RetriesMaskInjectedFaults) {
  // The determinism contract of the fault plan: with throw_burst <=
  // max_retries, every rate-injected fault is absorbed by a retry, so
  // verdicts are identical to a fault-free run — under concurrent
  // feeders, small rings (ring-full burst pressure) and injected latency
  // spikes, across several seeds.
  StubModel model;
  const OnlineDetectorConfig policy{.flag_threshold = 0.9,
                                    .confirm_windows = 2};
  for (const std::uint64_t seed : {0xa1u, 0xa2u, 0xa3u}) {
    auto injector = std::make_shared<FaultInjector>(FaultPlan{
        .seed = seed,
        .score_throw_rate = 0.35,
        .throw_burst = 2,
        .slow_batch_rate = 0.1,
        .slow_batch_us = 200});

    ServeConfig config;
    config.window_size = 2;
    config.num_shards = 2;
    config.ring_capacity = 8;  // small ring: forced full-ring bursts
    config.record_verdicts = true;
    config.policy = policy;
    config.resilience.max_retries = 2;  // >= throw_burst: faults masked
    config.resilience.retry_backoff_us = 0;
    config.resilience.faults = injector;
    StreamEngine engine(model, config);

    constexpr std::size_t kFeeders = 3;
    constexpr std::size_t kStreamsPerFeeder = 3;
    constexpr std::size_t kStreams = kFeeders * kStreamsPerFeeder;
    constexpr std::size_t kWindows = 250;
    std::vector<StreamEngine::StreamHandle> handles;
    std::vector<std::vector<std::vector<double>>> workload;
    for (std::size_t s = 0; s < kStreams; ++s) {
      handles.push_back(engine.register_stream(seed * 1000 + s));
      workload.push_back(
          make_stream_windows(seed * 10 + s, kWindows, 2));
    }
    std::vector<std::thread> feeders;
    for (std::size_t f = 0; f < kFeeders; ++f)
      feeders.emplace_back([&, f] {
        for (std::size_t w = 0; w < kWindows; ++w)
          for (std::size_t j = 0; j < kStreamsPerFeeder; ++j) {
            const std::size_t s = f * kStreamsPerFeeder + j;
            engine.ingest(handles[s], workload[s][w]);
          }
      });
    for (auto& t : feeders) t.join();
    engine.drain();  // no latched error: every fault was retried away

    EXPECT_GT(injector->throws_injected(), 0u)
        << "seed " << seed << ": the plan never fired";
    EXPECT_FALSE(engine.last_error().has_value());
    for (std::size_t k = 0; k < config.num_shards; ++k)
      EXPECT_FALSE(engine.shard_degraded(k));
    for (std::size_t s = 0; s < kStreams; ++s)
      expect_verdicts_identical(
          engine.verdicts(handles[s]),
          serial_replay(model, policy, workload[s]),
          "fault soak seed " + std::to_string(seed) + " stream " +
              std::to_string(s));
    engine.shutdown();
  }
}

}  // namespace
}  // namespace hmd::serve
