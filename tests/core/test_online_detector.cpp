#include "core/online_detector.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace hmd::core {
namespace {

/// Deterministic stub detector: P(malware) = features[0].
class StubModel final : public ml::Classifier {
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

TEST(OnlineDetector, RejectsBadConfig) {
  StubModel model;
  EXPECT_THROW(OnlineDetector(model, {.flag_threshold = 0.0}),
               PreconditionError);
  EXPECT_THROW(OnlineDetector(model, {.flag_threshold = 1.0}),
               PreconditionError);
  EXPECT_THROW(OnlineDetector(model, {.confirm_windows = 0}),
               PreconditionError);
}

TEST(OnlineDetectorConfig, ValidateIsCallableStandalone) {
  OnlineDetectorConfig ok;
  EXPECT_NO_THROW(ok.validate());
  OnlineDetectorConfig bad;
  bad.flag_threshold = -0.5;
  EXPECT_THROW(bad.validate(), PreconditionError);
  bad.flag_threshold = 0.5;
  bad.confirm_windows = 0;
  EXPECT_THROW(bad.validate(), PreconditionError);
}

TEST(OnlineDetector, FlagRateTracksFlaggedFraction) {
  StubModel model;
  OnlineDetector det(model, {.flag_threshold = 0.9, .confirm_windows = 10});
  EXPECT_DOUBLE_EQ(det.flag_rate(), 0.0);  // no windows yet
  det.observe(std::vector<double>{0.95});  // flagged
  det.observe(std::vector<double>{0.1});
  det.observe(std::vector<double>{0.95});  // flagged
  det.observe(std::vector<double>{0.1});
  EXPECT_DOUBLE_EQ(det.flag_rate(), 0.5);
  det.reset();
  EXPECT_DOUBLE_EQ(det.flag_rate(), 0.0);
}

TEST(OnlineDetector, FlagRateConsistentAcrossBatchAndStreaming) {
  const std::vector<double> flat = {0.95, 0.1, 0.95, 0.95, 0.2, 0.99};
  const OnlineDetectorConfig config{.flag_threshold = 0.9,
                                    .confirm_windows = 2};
  StubModel model;
  OnlineDetector streaming(model, config);
  for (double p : flat) streaming.observe(std::vector<double>{p});
  OnlineDetector batched(model, config);
  batched.score_windows(flat, 1);
  EXPECT_DOUBLE_EQ(batched.flag_rate(), streaming.flag_rate());
  EXPECT_DOUBLE_EQ(batched.flag_rate(), 4.0 / 6.0);
}

TEST(OnlineDetector, FlagsOnlyAboveThreshold) {
  StubModel model;
  OnlineDetector det(model, {.flag_threshold = 0.9, .confirm_windows = 2});
  EXPECT_FALSE(det.observe(std::vector<double>{0.5}).flagged);
  EXPECT_FALSE(det.observe(std::vector<double>{0.89}).flagged);
  EXPECT_TRUE(det.observe(std::vector<double>{0.95}).flagged);
}

TEST(OnlineDetector, AlarmNeedsConsecutiveConfirmation) {
  StubModel model;
  OnlineDetector det(model, {.flag_threshold = 0.9, .confirm_windows = 3});
  const std::vector<double> hot = {0.99};
  const std::vector<double> cold = {0.1};
  EXPECT_FALSE(det.observe(hot).alarm);   // 1
  EXPECT_FALSE(det.observe(hot).alarm);   // 2
  EXPECT_FALSE(det.observe(cold).alarm);  // streak broken
  EXPECT_FALSE(det.observe(hot).alarm);   // 1
  EXPECT_FALSE(det.observe(hot).alarm);   // 2
  EXPECT_TRUE(det.observe(hot).alarm);    // 3 → alarm
  EXPECT_TRUE(det.alarmed());
  EXPECT_EQ(det.alarm_window(), 5u);
}

TEST(OnlineDetector, AlarmLatches) {
  StubModel model;
  OnlineDetector det(model, {.flag_threshold = 0.9, .confirm_windows = 1});
  det.observe(std::vector<double>{0.99});
  EXPECT_TRUE(det.alarmed());
  // Subsequent clean windows do not clear the alarm.
  EXPECT_TRUE(det.observe(std::vector<double>{0.0}).alarm);
  EXPECT_EQ(det.alarm_window(), 0u);
}

TEST(OnlineDetector, ResetClearsState) {
  StubModel model;
  OnlineDetector det(model, {.flag_threshold = 0.9, .confirm_windows = 1});
  det.observe(std::vector<double>{0.99});
  det.reset();
  EXPECT_FALSE(det.alarmed());
  EXPECT_EQ(det.windows_seen(), 0u);
  EXPECT_EQ(det.alarm_window(), OnlineDetector::kNoAlarm);
}

TEST(OnlineDetector, CountsWindows) {
  StubModel model;
  OnlineDetector det(model);
  for (int i = 0; i < 7; ++i) det.observe(std::vector<double>{0.1});
  EXPECT_EQ(det.windows_seen(), 7u);
}

TEST(OnlineDetector, ProbabilityPassedThrough) {
  StubModel model;
  OnlineDetector det(model);
  const auto verdict = det.observe(std::vector<double>{0.73});
  EXPECT_DOUBLE_EQ(verdict.probability, 0.73);
}

TEST(OnlineDetector, ScoreWindowsMatchesStreamingObserve) {
  // One probability per window; streak 0.99,0.99 → alarm at window 3.
  const std::vector<double> flat = {0.1, 0.99, 0.2, 0.99, 0.99, 0.5};
  const OnlineDetectorConfig config{.flag_threshold = 0.9,
                                    .confirm_windows = 2};
  StubModel model;

  OnlineDetector streaming(model, config);
  std::vector<OnlineDetector::Verdict> expected;
  for (double p : flat)
    expected.push_back(streaming.observe(std::vector<double>{p}));

  OnlineDetector batched(model, config);
  const auto serial = batched.score_windows(flat, 1);
  ASSERT_EQ(serial.size(), expected.size());
  for (std::size_t w = 0; w < expected.size(); ++w) {
    EXPECT_DOUBLE_EQ(serial[w].probability, expected[w].probability);
    EXPECT_EQ(serial[w].flagged, expected[w].flagged) << w;
    EXPECT_EQ(serial[w].alarm, expected[w].alarm) << w;
  }
  EXPECT_EQ(batched.alarmed(), streaming.alarmed());
  EXPECT_EQ(batched.alarm_window(), streaming.alarm_window());
  EXPECT_EQ(batched.windows_seen(), streaming.windows_seen());

  ThreadPool pool(4);
  OnlineDetector parallel(model, config);
  const auto verdicts = parallel.score_windows(flat, 1, &pool);
  EXPECT_EQ(parallel.alarm_window(), streaming.alarm_window());
  EXPECT_TRUE(verdicts.back().alarm);
}

TEST(OnlineDetector, ScoreWindowsContinuesStreamingState) {
  // A flagged streak split across observe() and score_windows() must still
  // latch: the batch path shares the same state machine.
  StubModel model;
  OnlineDetector det(model, {.flag_threshold = 0.9, .confirm_windows = 3});
  det.observe(std::vector<double>{0.99});
  det.observe(std::vector<double>{0.99});
  const auto verdicts =
      det.score_windows(std::vector<double>{0.99, 0.1}, 1);
  EXPECT_TRUE(verdicts[0].alarm);
  EXPECT_EQ(det.alarm_window(), 2u);
}

TEST(OnlineDetector, ScoreWindowsCrossesChunkBoundaries) {
  // More windows than one internal scoring chunk (256): the serial replay
  // must still see every window in order, including an alarm streak that
  // straddles a chunk edge.
  constexpr std::size_t kWindows = 600;
  std::vector<double> flat(kWindows, 0.1);
  flat[254] = flat[255] = flat[256] = 0.99;  // streak across the boundary
  const OnlineDetectorConfig config{.flag_threshold = 0.9,
                                    .confirm_windows = 3};
  StubModel model;

  OnlineDetector streaming(model, config);
  for (double p : flat) streaming.observe(std::vector<double>{p});

  ThreadPool pool(4);
  OnlineDetector batched(model, config);
  const auto verdicts = batched.score_windows(flat, 1, &pool);
  ASSERT_EQ(verdicts.size(), kWindows);
  EXPECT_EQ(batched.alarm_window(), streaming.alarm_window());
  EXPECT_EQ(batched.alarm_window(), 256u);
  EXPECT_DOUBLE_EQ(batched.flag_rate(), streaming.flag_rate());
}

TEST(OnlineDetectorConfig, RejectsZeroScoreChunk) {
  OnlineDetectorConfig bad;
  bad.score_chunk_windows = 0;
  EXPECT_THROW(bad.validate(), PreconditionError);
  StubModel model;
  EXPECT_THROW(OnlineDetector(model, {.score_chunk_windows = 0}),
               PreconditionError);
}

TEST(OnlineDetector, ScoreChunkSizeNeverChangesVerdicts) {
  // The chunk size is a batching/throughput knob; any value must replay
  // the identical per-window state machine. Exercise a tiny chunk (3) and
  // a chunk larger than the input against the streaming reference.
  const std::vector<double> flat = {0.1, 0.99, 0.99, 0.99, 0.2,
                                    0.99, 0.99, 0.1,  0.99, 0.99};
  StubModel model;
  OnlineDetector streaming(
      model, {.flag_threshold = 0.9, .confirm_windows = 3});
  std::vector<OnlineDetector::Verdict> expected;
  for (double p : flat)
    expected.push_back(streaming.observe(std::vector<double>{p}));

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{64}}) {
    OnlineDetector batched(model, {.flag_threshold = 0.9,
                                   .confirm_windows = 3,
                                   .score_chunk_windows = chunk});
    const auto verdicts = batched.score_windows(flat, 1);
    ASSERT_EQ(verdicts.size(), expected.size()) << "chunk " << chunk;
    for (std::size_t w = 0; w < expected.size(); ++w) {
      EXPECT_EQ(verdicts[w].flagged, expected[w].flagged)
          << "chunk " << chunk << " window " << w;
      EXPECT_EQ(verdicts[w].alarm, expected[w].alarm)
          << "chunk " << chunk << " window " << w;
      EXPECT_DOUBLE_EQ(verdicts[w].probability, expected[w].probability);
    }
    EXPECT_EQ(batched.alarm_window(), streaming.alarm_window());
    EXPECT_DOUBLE_EQ(batched.flag_rate(), streaming.flag_rate());
  }
}

TEST(OnlineDetector, ApplyProbabilityMatchesObserve) {
  // apply_probability() is the model-free entry the serve engine uses
  // after batched scoring; it must drive the same state machine.
  const std::vector<double> probs = {0.1, 0.99, 0.99, 0.2, 0.99,
                                     0.99, 0.99, 0.3};
  StubModel model;
  const OnlineDetectorConfig config{.flag_threshold = 0.9,
                                    .confirm_windows = 3};
  OnlineDetector via_observe(model, config);
  OnlineDetector via_apply(model, config);
  for (double p : probs) {
    const auto a = via_observe.observe(std::vector<double>{p});
    const auto b = via_apply.apply_probability(p);
    EXPECT_DOUBLE_EQ(b.probability, a.probability);
    EXPECT_EQ(b.flagged, a.flagged);
    EXPECT_EQ(b.alarm, a.alarm);
  }
  EXPECT_EQ(via_apply.alarm_window(), via_observe.alarm_window());
  EXPECT_EQ(via_apply.windows_seen(), via_observe.windows_seen());
  EXPECT_DOUBLE_EQ(via_apply.flag_rate(), via_observe.flag_rate());
}

TEST(OnlineDetector, StateRoundTripContinuesBitIdentically) {
  // Snapshot mid-streak, restore into a fresh detector, and the continued
  // run must match an uninterrupted one verdict-for-verdict — the
  // contract the serve engine's checkpoint/restore is built on.
  const std::vector<double> probs = {0.1, 0.99, 0.2, 0.99, 0.99, 0.99,
                                     0.1, 0.99, 0.99, 0.3};
  StubModel model;
  const OnlineDetectorConfig config{.flag_threshold = 0.9,
                                    .confirm_windows = 3};
  for (std::size_t cut = 0; cut <= probs.size(); ++cut) {
    OnlineDetector uninterrupted(model, config);
    OnlineDetector first(model, config);
    for (std::size_t w = 0; w < cut; ++w) {
      uninterrupted.apply_probability(probs[w]);
      first.apply_probability(probs[w]);
    }
    OnlineDetector resumed(model, config);
    resumed.restore(first.state());
    for (std::size_t w = cut; w < probs.size(); ++w) {
      const auto a = uninterrupted.apply_probability(probs[w]);
      const auto b = resumed.apply_probability(probs[w]);
      EXPECT_EQ(b.flagged, a.flagged) << "cut " << cut << " window " << w;
      EXPECT_EQ(b.alarm, a.alarm) << "cut " << cut << " window " << w;
    }
    EXPECT_EQ(resumed.windows_seen(), uninterrupted.windows_seen());
    EXPECT_EQ(resumed.alarmed(), uninterrupted.alarmed());
    EXPECT_EQ(resumed.alarm_window(), uninterrupted.alarm_window());
    EXPECT_DOUBLE_EQ(resumed.flag_rate(), uninterrupted.flag_rate());
  }
}

TEST(OnlineDetector, RestoreRejectsInconsistentState) {
  StubModel model;
  OnlineDetector det(model);

  OnlineDetector::State bad;
  bad.windows = 2;
  bad.flagged = 5;  // flagged > windows
  EXPECT_THROW(det.restore(bad), PreconditionError);

  bad = {};
  bad.windows = 5;
  bad.flagged = 2;
  bad.streak = 3;  // streak > flagged
  EXPECT_THROW(det.restore(bad), PreconditionError);

  bad = {};
  bad.windows = 5;
  bad.alarmed = true;  // alarmed without an alarm window
  EXPECT_THROW(det.restore(bad), PreconditionError);

  bad = {};
  bad.windows = 3;
  bad.flagged = 1;
  bad.alarmed = true;
  bad.alarm_window = 7;  // alarm window beyond windows seen
  EXPECT_THROW(det.restore(bad), PreconditionError);
}

TEST(OnlineDetector, ObserveRejectsNonFiniteCounters) {
  StubModel model;
  OnlineDetector det(model);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [window, counter] :
       {std::pair{std::vector<double>{0.99, nan}, "counter 1"},
        std::pair{std::vector<double>{inf, 0.0}, "counter 0"},
        std::pair{std::vector<double>{0.99, -inf}, "counter 1"}}) {
    try {
      det.observe(window);
      ADD_FAILURE() << "observed a window with a non-finite " << counter;
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(counter), std::string::npos)
          << e.what();
    }
  }
  // A rejected window leaves the monitor untouched.
  EXPECT_EQ(det.windows_seen(), 0u);
  EXPECT_TRUE(det.observe(std::vector<double>{0.99, 0.0}).flagged);
  EXPECT_EQ(det.windows_seen(), 1u);
}

TEST(OnlineDetector, ScoreWindowsRejectsNonFiniteCounters) {
  StubModel model;
  OnlineDetector det(model, {.flag_threshold = 0.9, .confirm_windows = 1});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // The bad value sits in the last window, behind windows that would
  // flag and alarm: none of them may be applied.
  for (const auto& [flat, where] :
       {std::pair{std::vector<double>{0.99, 0.0, 0.99, 0.0, nan, 0.0},
                  "window 2: counter 0"},
        std::pair{std::vector<double>{0.99, 0.0, 0.1, inf},
                  "window 1: counter 1"},
        std::pair{std::vector<double>{0.99, -inf}, "window 0: counter 1"}}) {
    try {
      det.score_windows(flat, 2);
      ADD_FAILURE() << "scored windows with a non-finite value at " << where;
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(det.windows_seen(), 0u) << where;
    EXPECT_FALSE(det.alarmed()) << where;
  }
  const auto verdicts =
      det.score_windows(std::vector<double>{0.1, 0.0, 0.99, 0.0}, 2);
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_FALSE(verdicts[0].flagged);
  EXPECT_TRUE(verdicts[1].alarm);
  EXPECT_EQ(det.windows_seen(), 2u);
}

TEST(OnlineDetector, ScoreWindowsRejectsMalformedInput) {
  StubModel model;
  OnlineDetector det(model);
  EXPECT_THROW(det.score_windows(std::vector<double>{1.0, 2.0, 3.0}, 2),
               PreconditionError);
  EXPECT_THROW(det.score_windows(std::vector<double>{1.0}, 0),
               PreconditionError);
}

}  // namespace
}  // namespace hmd::core
