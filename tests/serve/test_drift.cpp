// Tests for the concept-drift layer (serve/drift.hpp): Page–Hinkley and
// windowed-KS detector semantics, the property contracts the retrain loop
// rests on (silence on stationary streams, guaranteed trips after a real
// shift), snapshot round-trips through the EngineSnapshot text format,
// and the StreamEngine integration (trip emission, cooldown, retrain
// gating). Suite names matter: the TSan CI job selects drift coverage by
// the PageHinkley/KsWindow/DriftSoak prefixes.
#include "serve/drift.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "serve/resilience.hpp"
#include "serve/stream_engine.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace hmd::serve {
namespace {

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

/// A stationary benign-looking score stream (scores well under any flag
/// threshold, i.i.d. — the distribution a calibrated detector idles on).
std::vector<double> benign_scores(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<double> scores(n);
  for (double& s : scores) s = rng.uniform(0.05, 0.35);
  return scores;
}

/// Current value of a serve.drift.* counter (process-wide registry, so
/// tests compare before/after deltas).
std::uint64_t drift_counter(const std::string& name) {
  return metrics().counter("serve.drift." + name).value();
}

// ---------------------------------------------------------------------------
// PageHinkley
// ---------------------------------------------------------------------------

TEST(PageHinkley, StaysSilentOnStationaryStreamsAcrossSeeds) {
  // Property: an i.i.d. score stream must never trip the mean test — a
  // false trip would thrash the retrain loop on healthy traffic. 50 seeds
  // x 4000 scores.
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    PageHinkley ph;
    for (const double s : benign_scores(seed, 4000))
      ASSERT_FALSE(ph.observe(s)) << "seed " << seed;
    EXPECT_EQ(ph.state().trips, 0u) << "seed " << seed;
  }
}

TEST(PageHinkley, TripsWithinBoundAfterUpwardMeanShift) {
  // Property: once the mean genuinely moves, the trip must land within a
  // bounded number of post-shift scores (λ / shift magnitude plus warm-up
  // slack), for every seed.
  constexpr std::size_t kShiftAt = 1000;
  constexpr std::size_t kBound = 500;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    PageHinkley ph;
    Rng rng(seed);
    for (std::size_t i = 0; i < kShiftAt; ++i)
      ASSERT_FALSE(ph.observe(rng.uniform(0.05, 0.35)));
    bool tripped = false;
    std::size_t at = 0;
    for (std::size_t i = 0; i < kBound && !tripped; ++i) {
      tripped = ph.observe(rng.uniform(0.55, 0.85));
      at = i;
    }
    EXPECT_TRUE(tripped) << "seed " << seed;
    EXPECT_LT(at, kBound) << "seed " << seed;
    EXPECT_EQ(ph.state().trips, 1u);
    // The trip statistic survives the internal re-baseline so the caller
    // can report it.
    EXPECT_GT(ph.deviation(), ph.config().lambda);
  }
}

TEST(PageHinkley, TripResetsBaselineButKeepsLifetimeTrips) {
  PageHinkley ph({.delta = 0.0, .lambda = 1.0, .min_samples = 4});
  for (int i = 0; i < 8; ++i) (void)ph.observe(0.1);
  bool tripped = false;
  for (int i = 0; i < 64 && !tripped; ++i) tripped = ph.observe(0.9);
  ASSERT_TRUE(tripped);
  EXPECT_EQ(ph.state().trips, 1u);
  EXPECT_EQ(ph.state().count, 0u);  // fresh baseline
  ph.reset();
  EXPECT_EQ(ph.state().trips, 1u);  // lifetime count survives reset()
  EXPECT_EQ(ph.deviation(), 0.0);   // explicit reset clears the statistic
}

TEST(PageHinkley, RestoreContinuesBitIdentically) {
  // Run one detector straight through; run a twin to the cut, snapshot,
  // restore into a fresh instance, finish — every observation and the
  // final state must match exactly.
  const auto scores = benign_scores(77, 600);
  const std::size_t cut = 389;
  PageHinkley reference;
  for (const double s : scores) (void)reference.observe(s);

  PageHinkley first;
  for (std::size_t i = 0; i < cut; ++i) (void)first.observe(scores[i]);
  PageHinkley resumed;
  resumed.restore(first.state());
  for (std::size_t i = cut; i < scores.size(); ++i)
    (void)resumed.observe(scores[i]);

  EXPECT_EQ(resumed.state().count, reference.state().count);
  EXPECT_EQ(resumed.state().mean, reference.state().mean);
  EXPECT_EQ(resumed.state().cumulative, reference.state().cumulative);
  EXPECT_EQ(resumed.state().minimum, reference.state().minimum);
  EXPECT_EQ(resumed.deviation(), reference.deviation());
}

TEST(PageHinkley, ConfigValidation) {
  EXPECT_THROW(PageHinkleyConfig{.delta = -0.1}.validate(),
               PreconditionError);
  EXPECT_THROW(PageHinkleyConfig{.lambda = 0.0}.validate(),
               PreconditionError);
  EXPECT_THROW(PageHinkleyConfig{.min_samples = 0}.validate(),
               PreconditionError);
  EXPECT_NO_THROW(PageHinkleyConfig{}.validate());
}

// ---------------------------------------------------------------------------
// KsWindowDetector
// ---------------------------------------------------------------------------

TEST(KsWindow, StatisticMatchesHandComputedValues) {
  // Identical samples: D = 0.
  EXPECT_DOUBLE_EQ(
      KsWindowDetector::ks_statistic({1, 2, 3, 4}, {1, 2, 3, 4}), 0.0);
  // Disjoint samples: D = 1.
  EXPECT_DOUBLE_EQ(KsWindowDetector::ks_statistic({1, 2, 3}, {10, 11, 12}),
                   1.0);
  // Half-overlapping: a = {1,2,3,4}, b = {3,4,5,6}. At x just below 3,
  // F_a = 1/2 and F_b = 0 → D = 1/2.
  EXPECT_DOUBLE_EQ(
      KsWindowDetector::ks_statistic({1, 2, 3, 4}, {3, 4, 5, 6}), 0.5);
  // Ties across samples must not inflate D: a = {1,2,2,3}, b = {2,2,2,2}.
  // Just below 2: F_a = 1/4, F_b = 0; from 2 on: F_a = 3/4, F_b = 1 —
  // the sup gap is 1/4 on both sides of the tie block.
  EXPECT_DOUBLE_EQ(KsWindowDetector::ks_statistic({1, 2, 2, 3}, {2, 2, 2, 2}),
                   0.25);
}

TEST(KsWindow, StaysSilentOnStationaryStreamsAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    KsWindowDetector ks;
    for (const double s : benign_scores(seed + 500, 4000))
      ASSERT_FALSE(ks.observe(s)) << "seed " << seed;
    EXPECT_EQ(ks.state().trips, 0u) << "seed " << seed;
  }
}

TEST(KsWindow, TripsWithinBoundAfterDistributionChange) {
  // The sliding window fully turns over `window` scores after the shift;
  // the next evaluation (≤ stride later) must see D near 1 and trip.
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    KsWindowDetector ks;
    const KsConfig& cfg = ks.config();
    Rng rng(seed);
    for (std::size_t i = 0; i < 1000; ++i)
      ASSERT_FALSE(ks.observe(rng.uniform(0.05, 0.35)));
    const std::size_t bound = cfg.window + cfg.stride;
    bool tripped = false;
    for (std::size_t i = 0; i < bound && !tripped; ++i)
      tripped = ks.observe(rng.uniform(0.55, 0.85));
    EXPECT_TRUE(tripped) << "seed " << seed;
    EXPECT_EQ(ks.state().trips, 1u) << "seed " << seed;
  }
}

TEST(KsWindow, DetectsShapeChangeTheMeanTestMisses) {
  // Same mean, different shape: benign mass split into two far modes.
  // Page–Hinkley stays silent (the mean never moves); KS must trip.
  Rng rng(3);
  PageHinkley ph;
  KsWindowDetector ks;
  bool ks_tripped = false;
  for (std::size_t i = 0; i < 1000; ++i) {
    const double s = rng.uniform(0.18, 0.22);  // tight around 0.2
    ASSERT_FALSE(ph.observe(s));
    ASSERT_FALSE(ks.observe(s));
  }
  for (std::size_t i = 0; i < 400; ++i) {
    // Bimodal with the same 0.2 mean.
    const double s = rng.bernoulli(0.5) ? rng.uniform(0.0, 0.02)
                                        : rng.uniform(0.38, 0.4);
    ASSERT_FALSE(ph.observe(s)) << "mean test should not fire";
    ks_tripped = ks.observe(s) || ks_tripped;
  }
  EXPECT_TRUE(ks_tripped);
}

TEST(KsWindow, EvaluatesOnTheStrideSchedule) {
  // window 8, stride 4: first evaluation at score 16 (reference + first
  // full window), then every 4th. Feed a shifted stream so every
  // evaluation trips, and check trips land exactly on the schedule.
  KsWindowDetector ks({.window = 8, .threshold = 0.4, .stride = 4});
  std::vector<std::size_t> trip_points;
  for (std::size_t i = 1; i <= 16; ++i)
    if (ks.observe(0.1)) trip_points.push_back(i);
  // Reference and window identical: no trip despite the schedule.
  EXPECT_TRUE(trip_points.empty());
  // Now a fresh detector with a shifted tail.
  KsWindowDetector shifted({.window = 8, .threshold = 0.4, .stride = 4});
  for (std::size_t i = 1; i <= 8; ++i) ASSERT_FALSE(shifted.observe(0.1));
  std::size_t fed = 8;
  bool tripped = false;
  while (!tripped) {
    ++fed;
    tripped = shifted.observe(0.9);
    ASSERT_LE(fed, 16u);  // must trip at the first evaluation point
  }
  EXPECT_EQ(fed, 16u);
  EXPECT_DOUBLE_EQ(shifted.last_statistic(), 1.0);
}

TEST(KsWindow, RestoreContinuesBitIdenticallyMidRing) {
  // Cut inside the ring phase (reference full, sliding window wrapping):
  // the restored chronological `current` must reproduce the same
  // evaluations at the same points.
  Rng rng(91);
  std::vector<double> scores(700);
  for (double& s : scores) s = rng.uniform(0.0, 1.0);
  const KsConfig cfg{.window = 32, .threshold = 1.0, .stride = 8};

  KsWindowDetector reference(cfg);
  std::vector<double> ref_stats;
  for (const double s : scores) {
    (void)reference.observe(s);
    ref_stats.push_back(reference.last_statistic());
  }

  const std::size_t cut = 357;  // mid-ring, not stride-aligned
  KsWindowDetector first(cfg);  // threshold 1.0: D can never exceed it
  for (std::size_t i = 0; i < cut; ++i) (void)first.observe(scores[i]);
  KsWindowDetector resumed(cfg);
  resumed.restore(first.state());
  for (std::size_t i = cut; i < scores.size(); ++i) {
    (void)resumed.observe(scores[i]);
    EXPECT_EQ(resumed.last_statistic(), ref_stats[i]) << "score " << i;
  }
  EXPECT_EQ(resumed.state().observed, reference.state().observed);
}

TEST(KsWindow, RestoreRejectsOversizedSamples) {
  KsWindowDetector ks({.window = 8, .threshold = 0.4, .stride = 2});
  KsWindowDetector::State state;
  state.reference = std::vector<double>(9, 0.1);  // > window
  EXPECT_THROW(ks.restore(state), PreconditionError);
  state.reference = {0.1, 0.2};
  state.current = std::vector<double>(9, 0.1);
  EXPECT_THROW(ks.restore(state), PreconditionError);
}

TEST(KsWindow, ConfigValidation) {
  EXPECT_THROW(KsConfig{.window = 1}.validate(), PreconditionError);
  EXPECT_THROW(KsConfig{.threshold = 0.0}.validate(), PreconditionError);
  EXPECT_THROW(KsConfig{.stride = 0}.validate(), PreconditionError);
  EXPECT_NO_THROW(KsConfig{}.validate());
}

// ---------------------------------------------------------------------------
// Non-finite scores
// ---------------------------------------------------------------------------

/// A score stream that climbs through four levels, so both detectors trip
/// more than once.
std::vector<double> stepped_scores(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> scores;
  for (const double lo : {0.05, 0.3, 0.55, 0.8})
    for (std::size_t i = 0; i < 400; ++i)
      scores.push_back(rng.uniform(lo, lo + 0.2));
  return scores;
}

/// `clean` with NaN, +inf and -inf interleaved, one after every third score.
std::vector<double> with_non_finite(const std::vector<double>& clean) {
  const double poison[] = {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
  std::vector<double> out;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    out.push_back(clean[i]);
    if (i % 3 == 2) out.push_back(poison[(i / 3) % 3]);
  }
  return out;
}

/// Feeds `scores` to `detector`; returns the trip points, each counted as
/// the number of finite scores seen so far.
template <typename Detector>
std::vector<std::size_t> trip_points(Detector& detector,
                                     const std::vector<double>& scores) {
  std::vector<std::size_t> trips;
  std::size_t finite = 0;
  for (const double s : scores) {
    if (std::isfinite(s)) ++finite;
    if (detector.observe(s)) trips.push_back(finite);
  }
  return trips;
}

TEST(PageHinkley, NonFiniteScoresLeaveStateAndTripsUnchanged) {
  const auto clean = stepped_scores(41);
  PageHinkley reference;
  const auto expected = trip_points(reference, clean);
  ASSERT_GE(expected.size(), 2u);

  PageHinkley ph;
  EXPECT_EQ(trip_points(ph, with_non_finite(clean)), expected);
  EXPECT_EQ(ph.state().count, reference.state().count);
  EXPECT_EQ(ph.state().mean, reference.state().mean);
  EXPECT_EQ(ph.state().cumulative, reference.state().cumulative);
  EXPECT_EQ(ph.state().minimum, reference.state().minimum);
  EXPECT_EQ(ph.state().last_deviation, reference.state().last_deviation);
  EXPECT_EQ(ph.state().trips, reference.state().trips);
}

TEST(KsWindow, NonFiniteScoresLeaveStateAndTripsUnchanged) {
  const auto clean = stepped_scores(43);
  KsWindowDetector reference;
  const auto expected = trip_points(reference, clean);
  ASSERT_GE(expected.size(), 2u);

  KsWindowDetector ks;
  EXPECT_EQ(trip_points(ks, with_non_finite(clean)), expected);
  const auto got = ks.state();
  const auto want = reference.state();
  EXPECT_EQ(got.reference, want.reference);
  EXPECT_EQ(got.current, want.current);
  EXPECT_EQ(got.observed, want.observed);
  EXPECT_EQ(got.last_statistic, want.last_statistic);
  EXPECT_EQ(got.trips, want.trips);
}

/// `fn` must throw PreconditionError with `field` in its message.
template <class Fn>
void expect_precondition_naming(Fn fn, const std::string& field) {
  try {
    fn();
    ADD_FAILURE() << field << ": no PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(PageHinkley, RestoreRejectsNaNNamingTheField) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::pair<double PageHinkley::State::*, std::string> fields[] = {
      {&PageHinkley::State::mean, "mean"},
      {&PageHinkley::State::cumulative, "cumulative"},
      {&PageHinkley::State::minimum, "minimum"},
      {&PageHinkley::State::last_deviation, "last_deviation"}};
  for (const auto& [member, name] : fields) {
    PageHinkley ph;
    PageHinkley::State state{.count = 5, .trips = 1};
    state.*member = nan;
    expect_precondition_naming([&] { ph.restore(state); },
                               "PageHinkley::State." + name);
    EXPECT_EQ(ph.state().count, 0u) << name << ": state changed";
  }
}

TEST(KsWindow, RestoreRejectsNaNNamingTheField) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  KsWindowDetector ks({.window = 8, .threshold = 0.4, .stride = 2});
  KsWindowDetector::State state;
  state.reference = {0.1, nan, 0.3};
  expect_precondition_naming([&] { ks.restore(state); },
                             "KsWindowDetector::State.reference");
  state.reference = {0.1, 0.3};
  state.current = {nan};
  expect_precondition_naming([&] { ks.restore(state); },
                             "KsWindowDetector::State.current");
  EXPECT_TRUE(ks.state().reference.empty());
}

// ---------------------------------------------------------------------------
// ShardDriftDetector: cooldown / hysteresis
// ---------------------------------------------------------------------------

/// Aggressive config so unit tests trip in a handful of scores.
DriftConfig fast_drift_config() {
  DriftConfig config;
  config.enabled = true;
  config.page_hinkley = {.delta = 0.0, .lambda = 1.0, .min_samples = 4};
  config.ks = {.window = 8, .threshold = 0.4, .stride = 4};
  config.cooldown_scores = 64;
  return config;
}

TEST(ShardDrift, EmitsEventThenSuppressesDuringCooldown) {
  ShardDriftDetector det(fast_drift_config(), 3);
  std::optional<DriftEvent> event;
  std::uint64_t fed = 0;
  for (int i = 0; i < 8 && !event; ++i) {
    event = det.observe(0.1, 5);
    ++fed;
  }
  for (int i = 0; i < 64 && !event; ++i) {
    event = det.observe(0.9, 5);
    ++fed;
  }
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->shard, 3u);
  EXPECT_EQ(event->model_version, 5u);
  EXPECT_EQ(event->score_index, fed);
  EXPECT_GT(event->statistic, 0.0);

  // Keep hammering a shifting stream inside the cooldown: trips are
  // counted as suppressed, never emitted.
  Rng rng(4);
  for (int i = 0; i < 60; ++i) {
    const double s = rng.bernoulli(0.5) ? 0.05 : 0.95;
    EXPECT_FALSE(det.observe(s, 5).has_value()) << "score " << i;
  }
  EXPECT_GT(det.suppressed(), 0u);
}

TEST(ShardDrift, CooldownExpiresAndEventsResume) {
  DriftConfig config = fast_drift_config();
  config.cooldown_scores = 16;
  ShardDriftDetector det(config, 0);
  auto drive_to_trip = [&det]() {
    for (int i = 0; i < 8; ++i)
      if (det.observe(0.1, 1)) return true;
    for (int i = 0; i < 128; ++i)
      if (det.observe(0.9, 1)) return true;
    return false;
  };
  ASSERT_TRUE(drive_to_trip());
  // Walk off the cooldown with a calm stream, then shift again.
  for (int i = 0; i < 16; ++i) (void)det.observe(0.1, 1);
  ASSERT_TRUE(drive_to_trip());
}

TEST(ShardDrift, ModelSwapResetsBaselinesAndCooldown) {
  ShardDriftDetector det(fast_drift_config(), 0);
  for (int i = 0; i < 8; ++i) (void)det.observe(0.1, 1);
  bool tripped = false;
  for (int i = 0; i < 64 && !tripped; ++i)
    tripped = det.observe(0.9, 1).has_value();
  ASSERT_TRUE(tripped);

  det.on_model_swap();
  // The new model's scores ARE the new baseline: a stream that would have
  // re-tripped against the stale reference is now normal.
  for (int i = 0; i < 200; ++i)
    EXPECT_FALSE(det.observe(0.9, 2).has_value()) << "score " << i;
}

TEST(ShardDrift, StateRoundTripContinuesIdentically) {
  const DriftConfig config = fast_drift_config();
  Rng rng(13);
  std::vector<double> scores(300);
  for (double& s : scores) s = rng.uniform(0.0, 1.0);

  ShardDriftDetector reference(config, 1);
  for (const double s : scores) (void)reference.observe(s, 1);

  const std::size_t cut = 143;
  ShardDriftDetector first(config, 1);
  for (std::size_t i = 0; i < cut; ++i) (void)first.observe(scores[i], 1);
  ShardDriftDetector resumed(config, 1);
  resumed.restore(first.state());
  for (std::size_t i = cut; i < scores.size(); ++i)
    (void)resumed.observe(scores[i], 1);

  EXPECT_EQ(resumed.scores(), reference.scores());
  EXPECT_EQ(resumed.suppressed(), reference.suppressed());
  EXPECT_EQ(resumed.page_hinkley().state().trips,
            reference.page_hinkley().state().trips);
  EXPECT_EQ(resumed.page_hinkley().state().mean,
            reference.page_hinkley().state().mean);
  EXPECT_EQ(resumed.ks().state().trips, reference.ks().state().trips);
  EXPECT_EQ(resumed.ks().last_statistic(), reference.ks().last_statistic());
}

// ---------------------------------------------------------------------------
// DriftConfig validation
// ---------------------------------------------------------------------------

TEST(DriftConfigValidate, RejectsBadPolicies) {
  DriftConfig config;
  config.retrain = true;
  config.retrain_scheme = "MLR";  // supervised: cannot learn from benign log
  EXPECT_THROW(config.validate(), PreconditionError);
  config = {};
  config.retrain = true;
  config.retrain_scheme = "NotAScheme";
  EXPECT_THROW(config.validate(), PreconditionError);
  config = {};
  config.retrain = true;
  config.window_log_capacity = 0;
  EXPECT_THROW(config.validate(), PreconditionError);
  config = {};
  config.retrain = true;
  config.retrain_min_rows = 4;  // under the one-class fit minimum
  EXPECT_THROW(config.validate(), PreconditionError);
  config = {};
  config.retrain = true;
  config.retrain_max_rows = 16;  // < retrain_min_rows
  EXPECT_THROW(config.validate(), PreconditionError);
  config = {};
  // Without retrain the log policy is inert and deliberately unchecked.
  config.window_log_capacity = 0;
  EXPECT_NO_THROW(config.validate());
  config = {};
  EXPECT_NO_THROW(config.validate());
  config.retrain = true;
  EXPECT_NO_THROW(config.validate());  // MahalanobisThreshold default
}

// ---------------------------------------------------------------------------
// EngineSnapshot drift section
// ---------------------------------------------------------------------------

TEST(EngineSnapshotDrift, SectionRoundTripsExactly) {
  // Drift state with awkward doubles (negative, subnormal-ish, exact
  // binary fractions) must survive the hexfloat text format bit-for-bit.
  EngineSnapshot snap;
  snap.model_version = 2;
  StreamSnapshot stream;
  stream.id = 4;
  stream.accepted = 10;
  stream.detector = {.windows = 10, .flagged = 2, .streak = 1};
  snap.streams = {stream};

  DriftShardSnapshot shard0;
  shard0.shard = 0;
  shard0.state.page_hinkley = {.count = 42,
                               .mean = 0.1,
                               .cumulative = -3.25,
                               .minimum = -7.75,
                               .last_deviation = 4.5,
                               .trips = 2};
  shard0.state.ks.reference = {0.25, 0.5, 1e-300};
  shard0.state.ks.current = {0.125, 0.0625};
  shard0.state.ks.observed = 99;
  shard0.state.ks.last_statistic = 0.375;
  shard0.state.ks.trips = 1;
  shard0.state.scores = 1234;
  shard0.state.cooldown_left = 17;
  shard0.state.suppressed = 3;
  DriftShardSnapshot shard1;
  shard1.shard = 1;  // fresh shard: everything zero/empty
  snap.drift = {shard0, shard1};

  std::ostringstream out;
  snap.write(out);
  std::istringstream in(out.str());
  const Result<EngineSnapshot> loaded = EngineSnapshot::read(in);
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  ASSERT_EQ(loaded.value().drift.size(), 2u);
  const ShardDriftDetector::State& got = loaded.value().drift[0].state;
  EXPECT_EQ(loaded.value().drift[0].shard, 0u);
  EXPECT_EQ(got.page_hinkley.count, 42u);
  EXPECT_EQ(got.page_hinkley.mean, 0.1);
  EXPECT_EQ(got.page_hinkley.cumulative, -3.25);
  EXPECT_EQ(got.page_hinkley.minimum, -7.75);
  EXPECT_EQ(got.page_hinkley.last_deviation, 4.5);
  EXPECT_EQ(got.page_hinkley.trips, 2u);
  EXPECT_EQ(got.ks.reference, shard0.state.ks.reference);
  EXPECT_EQ(got.ks.current, shard0.state.ks.current);
  EXPECT_EQ(got.ks.observed, 99u);
  EXPECT_EQ(got.ks.last_statistic, 0.375);
  EXPECT_EQ(got.ks.trips, 1u);
  EXPECT_EQ(got.scores, 1234u);
  EXPECT_EQ(got.cooldown_left, 17u);
  EXPECT_EQ(got.suppressed, 3u);
  EXPECT_EQ(loaded.value().drift[1].shard, 1u);
  EXPECT_TRUE(loaded.value().drift[1].state.ks.reference.empty());
}

TEST(EngineSnapshotDrift, SnapshotsWithoutDriftSectionStillParse) {
  // Pre-drift checkpoints have no trailing section; they must load with
  // an empty drift vector (back-compat with existing snapshot files).
  EngineSnapshot snap;
  snap.model_version = 1;
  StreamSnapshot stream;
  stream.id = 1;
  stream.accepted = 5;
  stream.detector = {.windows = 5, .flagged = 1};
  snap.streams = {stream};
  std::ostringstream out;
  snap.write(out);  // snap.drift empty: no drift section written
  EXPECT_EQ(out.str().find("drift_shards"), std::string::npos);

  std::istringstream in(out.str());
  const Result<EngineSnapshot> loaded = EngineSnapshot::read(in);
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  EXPECT_TRUE(loaded.value().drift.empty());
}

TEST(EngineSnapshotDrift, ReadRejectsMalformedDriftSections) {
  auto expect_parse_error = [](const std::string& drift_text,
                               const std::string& label) {
    const std::string text =
        "hmd-snapshot v1\nmodel_version 1\nstreams 0\n" + drift_text;
    std::istringstream in(text);
    const Result<EngineSnapshot> r = EngineSnapshot::read(in);
    ASSERT_FALSE(r.ok()) << label;
    EXPECT_EQ(r.error().code(), ErrCode::kParse) << label;
  };
  expect_parse_error("drift_shards 1\n", "truncated shard block");
  expect_parse_error(
      "drift_shards 1\n"
      "drift_shard 0 scores 1 cooldown_left 0 suppressed 0\n"
      "ph count 1 mean nope cumulative 0x0p+0 minimum 0x0p+0 "
      "last_deviation 0x0p+0 trips 0\n"
      "ks observed 0 last_statistic 0x0p+0 trips 0\n"
      "ks_reference 0\nks_current 0\n",
      "non-numeric double");
  expect_parse_error(
      "drift_shards 1\n"
      "drift_shard 0 scores 1 cooldown_left 0 suppressed 0\n"
      "ph count 1 mean 0x0p+0 cumulative 0x0p+0 minimum 0x0p+0 "
      "last_deviation 0x0p+0 trips 0\n"
      "ks observed 0 last_statistic 0x0p+0 trips 0\n"
      "ks_reference 2 0x1p-1\nks_current 0\n",
      "reference count mismatch");
}

// ---------------------------------------------------------------------------
// StreamEngine integration
// ---------------------------------------------------------------------------

/// Engine config that trips quickly on a one-feature stream.
ServeConfig drift_engine_config() {
  ServeConfig config;
  config.window_size = 1;
  config.num_shards = 1;
  config.record_verdicts = true;
  config.policy = {.flag_threshold = 0.97, .confirm_windows = 4};
  config.drift = fast_drift_config();
  config.drift.cooldown_scores = 32;
  return config;
}

TEST(StreamEngine, DriftTripEmitsEventsAndMetrics) {
  const std::uint64_t trips_before = drift_counter("trips");
  const std::uint64_t scores_before = drift_counter("scores");
  StubModel model;
  StreamEngine engine(model, drift_engine_config());
  auto* stream = engine.register_stream(1);
  for (int i = 0; i < 50; ++i)
    engine.ingest(stream, std::vector<double>{0.1});
  engine.drain();
  EXPECT_TRUE(engine.drift_events().empty());  // stationary: no trips
  for (int i = 0; i < 100; ++i)
    engine.ingest(stream, std::vector<double>{0.9});
  engine.drain();

  const auto events = engine.drift_events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().shard, 0u);
  EXPECT_EQ(events.front().model_version, 1u);
  EXPECT_GT(events.front().statistic, 0.0);
  EXPECT_GT(events.front().score_index, 50u);  // after the benign phase
  EXPECT_GT(drift_counter("trips"), trips_before);
  EXPECT_EQ(drift_counter("scores"), scores_before + 150);
  // No retrain was armed: the pump has nothing to do.
  const auto pump = engine.drift_pump();
  EXPECT_FALSE(pump.retrain_started);
  EXPECT_EQ(pump.published_version, 0u);
  EXPECT_EQ(engine.hub().version(), 1u);
  engine.shutdown();
}

TEST(StreamEngine, DriftDisabledCarriesNoStateAndEmitsNothing) {
  StubModel model;
  ServeConfig config;
  config.window_size = 1;
  StreamEngine engine(model, config);
  auto* stream = engine.register_stream(1);
  for (int i = 0; i < 200; ++i)
    engine.ingest(stream, std::vector<double>{i < 100 ? 0.1 : 0.9});
  engine.drain();
  EXPECT_TRUE(engine.drift_events().empty());
  EXPECT_TRUE(engine.snapshot().drift.empty());
  EXPECT_EQ(engine.await_retrain(), 0u);
  engine.shutdown();
}

TEST(StreamEngine, TripWithRetrainRebuildsAndPublishesOneClassEpoch) {
  const std::uint64_t completed_before = drift_counter("retrains_completed");
  const std::uint64_t published_before = drift_counter("swaps_published");
  auto hub = std::make_shared<ModelHub>();
  hub->publish(std::make_shared<StubModel>());

  ServeConfig config = drift_engine_config();
  config.window_size = 4;
  config.drift.retrain = true;
  config.drift.retrain_scheme = "MahalanobisThreshold";
  config.drift.retrain_min_rows = 32;
  StreamEngine engine(hub, config);
  auto* stream = engine.register_stream(7);

  // Benign phase (P = f[0] ≈ 0.1, unflagged → logged), then a shifted
  // phase (P ≈ 0.8, still unflagged → logged, but the mean shift trips).
  Rng rng(55);
  auto feed = [&](double lo, double hi, int n) {
    for (int i = 0; i < n; ++i) {
      std::vector<double> w(4);
      w[0] = rng.uniform(lo, hi);
      for (std::size_t f = 1; f < 4; ++f) w[f] = rng.normal(0.0, 1.0);
      engine.ingest(stream, w);
    }
  };
  feed(0.05, 0.2, 80);
  engine.drain();
  feed(0.7, 0.9, 80);
  engine.drain();
  ASSERT_FALSE(engine.drift_events().empty());

  const std::uint64_t version = engine.await_retrain();
  EXPECT_EQ(version, 2u);
  EXPECT_EQ(engine.hub().version(), 2u);
  EXPECT_FALSE(engine.last_retrain_error().has_value());
  EXPECT_EQ(engine.hub().current()->primary->name(), "MahalanobisThreshold");
  EXPECT_EQ(drift_counter("retrains_completed"), completed_before + 1);
  EXPECT_EQ(drift_counter("swaps_published"), published_before + 1);

  // Traffic scored by the new epoch is stamped with it, and the shard's
  // drift baseline now watches the new epoch: any further trips must be
  // attributed to version 2, never to the retired model.
  feed(0.7, 0.9, 40);
  engine.drain();
  EXPECT_EQ(engine.verdict_versions(stream).back(), 2u);
  for (const DriftEvent& event : engine.drift_events()) {
    // 160 scores were fed before the swap; anything after is epoch 2.
    EXPECT_EQ(event.model_version, event.score_index <= 160 ? 1u : 2u)
        << "score " << event.score_index;
  }
  engine.shutdown();
}

TEST(StreamEngine, RetrainSkippedWhenWindowLogTooSmall) {
  const std::uint64_t skipped_before = drift_counter("retrains_skipped");
  StubModel model;
  ServeConfig config = drift_engine_config();
  config.drift.retrain = true;
  // Every logged row fits, but the minimum is out of reach: capacity 64
  // with one stream can never satisfy 4096 rows.
  config.drift.window_log_capacity = 64;
  config.drift.retrain_min_rows = 4096;
  config.drift.retrain_max_rows = 4096;
  StreamEngine engine(model, config);
  auto* stream = engine.register_stream(2);
  for (int i = 0; i < 40; ++i)
    engine.ingest(stream, std::vector<double>{0.1});
  engine.drain();
  for (int i = 0; i < 80; ++i)
    engine.ingest(stream, std::vector<double>{0.9});
  engine.drain();
  ASSERT_FALSE(engine.drift_events().empty());

  EXPECT_EQ(engine.await_retrain(), 0u);
  EXPECT_EQ(drift_counter("retrains_skipped"), skipped_before + 1);
  EXPECT_EQ(engine.hub().version(), 1u);  // nothing was published
  engine.shutdown();
}

TEST(StreamEngine, CleanRetrainNeverTouchesTheFailurePath) {
  // A successful retrain must leave retrains_failed and
  // last_retrain_error() untouched (the worker catches and stages
  // failures instead of throwing — a clean run proves the happy path
  // never trips that machinery).
  const std::uint64_t failed_before = drift_counter("retrains_failed");
  StubModel model;
  ServeConfig config = drift_engine_config();
  config.drift.retrain = true;
  StreamEngine engine(model, config);
  auto* stream = engine.register_stream(3);
  for (int i = 0; i < 60; ++i)
    engine.ingest(stream, std::vector<double>{0.1});
  engine.drain();
  for (int i = 0; i < 80; ++i)
    engine.ingest(stream, std::vector<double>{0.9});
  engine.drain();
  (void)engine.await_retrain();
  EXPECT_EQ(drift_counter("retrains_failed"), failed_before);
  EXPECT_FALSE(engine.last_retrain_error().has_value());
  engine.shutdown();
}

TEST(StreamEngine, DriftStateSurvivesCheckpointRestore) {
  // Feed a benign phase, checkpoint, restore into a fresh engine, then
  // shift: the restored engine must trip using the checkpointed baseline
  // (a cold engine would need its own warm-up first).
  StubModel model;
  ServeConfig config = drift_engine_config();
  config.drift.page_hinkley = {.delta = 0.0, .lambda = 2.0,
                               .min_samples = 40};
  std::string checkpoint_text;
  {
    StreamEngine first(model, config);
    auto* stream = first.register_stream(11);
    for (int i = 0; i < 60; ++i)
      first.ingest(stream, std::vector<double>{0.1});
    first.drain();
    const EngineSnapshot snap = first.snapshot();
    ASSERT_EQ(snap.drift.size(), 1u);
    EXPECT_EQ(snap.drift[0].state.scores, 60u);
    std::ostringstream out;
    first.checkpoint(out);
    checkpoint_text = out.str();
    first.shutdown();
  }

  std::istringstream in(checkpoint_text);
  Result<EngineSnapshot> snap = EngineSnapshot::read(in);
  ASSERT_TRUE(snap.ok()) << snap.error().to_string();
  ServeConfig resumed_config = config;
  resumed_config.restore_from =
      std::make_shared<const EngineSnapshot>(std::move(snap).value());
  StreamEngine resumed(model, resumed_config);
  auto* stream = resumed.register_stream(11);
  // Only 30 shifted windows: under min_samples from cold, but the
  // restored baseline already has 60 — the trip must fire.
  for (int i = 0; i < 30; ++i)
    resumed.ingest(stream, std::vector<double>{0.9});
  resumed.drain();
  EXPECT_FALSE(resumed.drift_events().empty());
  resumed.shutdown();
}

// A NaN in a KS sample hangs the merge sweep of the next evaluation, and
// one in Page–Hinkley's sums never leaves them. Both ways a snapshot
// reaches an engine refuse it: the text reader with kParse, and the
// engine constructor (for a snapshot built in code) with a
// PreconditionError naming the field.
TEST(EngineSnapshotDrift, NaNStateIsRejectedAtBothEntryPoints) {
  std::istringstream file(
      "hmd-snapshot v1\nmodel_version 1\nstreams 0\ndrift_shards 1\n"
      "drift_shard 0 scores 1 cooldown_left 0 suppressed 0\n"
      "ph count 1 mean 0x0p+0 cumulative 0x0p+0 minimum 0x0p+0 "
      "last_deviation 0x0p+0 trips 0\n"
      "ks observed 0 last_statistic 0x0p+0 trips 0\n"
      "ks_reference 2 nan 0x1p-1\nks_current 0\n");
  const Result<EngineSnapshot> read = EngineSnapshot::read(file);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.error().code(), ErrCode::kParse);
  EXPECT_EQ(read.error().message().rfind(
                "snapshot: line 8: 'ks_reference': ", 0),
            0u)
      << read.error().message();

  const double nan = std::numeric_limits<double>::quiet_NaN();
  StubModel model;
  auto restore_with = [&](const ShardDriftDetector::State& state) {
    EngineSnapshot snap;
    snap.drift = {{.shard = 0, .state = state}};
    ServeConfig config = drift_engine_config();
    config.restore_from = std::make_shared<const EngineSnapshot>(snap);
    StreamEngine engine(model, config);
  };
  ShardDriftDetector::State ks_nan;
  ks_nan.ks.reference = {nan, 0.5};
  expect_precondition_naming([&] { restore_with(ks_nan); },
                             "KsWindowDetector::State.reference");
  ShardDriftDetector::State ph_nan;
  ph_nan.page_hinkley.mean = nan;
  expect_precondition_naming([&] { restore_with(ph_nan); },
                             "PageHinkley::State.mean");
}

TEST(ServeConfigDrift, ValidateIsEnforcedByTheEngine) {
  StubModel model;
  ServeConfig config;
  config.window_size = 1;
  config.drift.enabled = true;
  config.drift.retrain = true;
  config.drift.retrain_scheme = "J48";  // supervised
  EXPECT_THROW(StreamEngine(model, config), PreconditionError);
}

}  // namespace
}  // namespace hmd::serve
