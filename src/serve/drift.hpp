// Concept-drift detection over the streaming score distribution.
//
// A deployed HMD's model is frozen at train time, but live HPC traffic is
// not: workloads shift, benign software updates, and a model that was
// calibrated on last month's distribution silently degrades. This module
// watches the per-shard stream of P(malware) scores with two online
// change detectors and emits DriftEvents when the distribution moves
// (docs/drift.md has the math and the trip/cooldown protocol):
//
//   PageHinkley       cumulative-deviation test on the score MEAN. Tracks
//                     the running mean m̄ₜ and the cumulative deviation
//                     cₜ = Σ (xᵢ - m̄ᵢ - δ); trips when cₜ - min cₜ > λ.
//                     Cheap (O(1) per score), catches sustained shifts.
//
//   KsWindowDetector  windowed two-sample Kolmogorov–Smirnov test. The
//                     first `window` scores after a reset become the
//                     reference sample; a sliding window of the most
//                     recent scores is compared against it every `stride`
//                     scores, tripping when the KS statistic
//                     D = sup|F_ref - F_cur| exceeds the threshold.
//                     Catches shape changes a mean test misses.
//
// ShardDriftDetector runs both per shard with trip hysteresis: after any
// trip both detectors reset (new baseline) and further trips are
// suppressed for cooldown_scores scores, so flapping traffic cannot
// thrash the retrain loop. All state is snapshot/restorable — drift
// baselines survive an engine checkpoint (serve/resilience.hpp).
//
// DriftConfig also carries the auto-retrain policy the StreamEngine's
// background worker follows (window log size, row budget, the one-class
// scheme to rebuild); see stream_engine.hpp for the pump/await protocol.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/result.hpp"

namespace hmd::serve {

/// Page–Hinkley test parameters.
struct PageHinkleyConfig {
  /// Magnitude tolerance: deviations below δ never accumulate.
  double delta = 0.005;
  /// Trip threshold on the accumulated deviation.
  double lambda = 25.0;
  /// Scores observed before the test may trip (baseline warm-up).
  std::size_t min_samples = 64;

  /// kPrecondition error naming the offending field, or success.
  Result<void> try_validate() const;
  /// Throwing wrapper over try_validate() (raises PreconditionError).
  void validate() const { try_validate().value(); }
};

/// One-sided Page–Hinkley test for an upward mean shift in the score
/// stream (a drifting detector shows as scores creeping up or down; the
/// serving path feeds P(malware), where upward shift is the alarming
/// direction and a downward shift surfaces through the KS detector).
class PageHinkley {
 public:
  /// Complete mutable test state; snapshot/restore round-trips exactly.
  struct State {
    std::uint64_t count = 0;       ///< scores since the last reset
    double mean = 0.0;             ///< running mean since the last reset
    double cumulative = 0.0;       ///< Σ (x - mean - δ)
    double minimum = 0.0;          ///< min of `cumulative` so far
    double last_deviation = 0.0;   ///< cumulative - minimum at last observe
    std::uint64_t trips = 0;       ///< lifetime trip count
  };

  PageHinkley() : PageHinkley(PageHinkleyConfig{}) {}
  explicit PageHinkley(PageHinkleyConfig config);

  /// Feed the next score; true when the test trips. A trip resets the
  /// baseline (count/mean/cumulative) and bumps `trips`. A non-finite
  /// score is ignored: false, state unchanged.
  bool observe(double x);

  /// Start a fresh baseline (keeps the lifetime trip count).
  void reset();

  /// Accumulated deviation at the last observe() — the trip statistic.
  double deviation() const { return state_.last_deviation; }

  const State& state() const { return state_; }
  /// Throws PreconditionError naming any NaN field of `state`.
  void restore(const State& state);
  const PageHinkleyConfig& config() const { return config_; }

 private:
  PageHinkleyConfig config_;
  State state_;
};

/// Windowed two-sample KS test parameters.
struct KsConfig {
  /// Sample size of both the reference and the sliding window.
  std::size_t window = 128;
  /// Trip threshold on the KS statistic D ∈ [0, 1].
  double threshold = 0.4;
  /// Evaluate every `stride` scores once the sliding window is full.
  std::size_t stride = 32;

  /// kPrecondition error naming the offending field, or success.
  Result<void> try_validate() const;
  /// Throwing wrapper over try_validate() (raises PreconditionError).
  void validate() const { try_validate().value(); }
};

/// Windowed two-sample Kolmogorov–Smirnov drift detector.
class KsWindowDetector {
 public:
  /// Complete mutable state; `current` is chronological (oldest first).
  struct State {
    std::vector<double> reference;  ///< baseline sample (first `window`)
    std::vector<double> current;    ///< sliding window, oldest first
    std::uint64_t observed = 0;     ///< scores since the last reset
    double last_statistic = 0.0;    ///< D at the last evaluation
    std::uint64_t trips = 0;        ///< lifetime trip count
  };

  KsWindowDetector() : KsWindowDetector(KsConfig{}) {}
  explicit KsWindowDetector(KsConfig config);

  /// Feed the next score; true when an evaluation trips. A trip resets
  /// both samples (keeps the lifetime trip count). A non-finite score is
  /// ignored: false, state unchanged.
  bool observe(double x);

  void reset();

  /// KS statistic at the last evaluation (0 before the first).
  double last_statistic() const { return last_statistic_; }

  State state() const;
  /// Throws PreconditionError on a sample past the window or holding NaN.
  void restore(const State& state);
  const KsConfig& config() const { return config_; }

  /// Two-sample KS statistic sup_x |F_a(x) - F_b(x)|. Inputs need not be
  /// sorted; both must be non-empty.
  static double ks_statistic(std::vector<double> a, std::vector<double> b);

 private:
  KsConfig config_;
  std::vector<double> reference_;
  std::vector<double> ring_;  ///< sliding window (ring once full)
  std::size_t head_ = 0;      ///< next overwrite slot when the ring is full
  std::uint64_t observed_ = 0;
  double last_statistic_ = 0.0;
  std::uint64_t trips_ = 0;
};

/// One detected distribution change in a shard's score stream.
struct DriftEvent {
  enum class Detector { kPageHinkley, kKs };

  Detector detector = Detector::kPageHinkley;
  std::size_t shard = 0;
  /// Shard-local score ordinal (1-based) at which the trip fired.
  std::uint64_t score_index = 0;
  /// The trip statistic: PH accumulated deviation, or the KS D.
  double statistic = 0.0;
  /// Hub epoch that produced the tripping scores.
  std::uint64_t model_version = 0;
};

/// Human-readable detector name ("page_hinkley" / "ks").
std::string to_string(DriftEvent::Detector detector);

/// Drift + auto-retrain policy (embedded in ServeConfig).
struct DriftConfig {
  /// Master switch: when false the engine carries no drift state at all.
  bool enabled = false;

  PageHinkleyConfig page_hinkley;
  KsConfig ks;

  /// Trip hysteresis: scores after a trip during which further trips are
  /// counted (serve.drift.suppressed) but do not emit events.
  std::size_t cooldown_scores = 1024;

  /// Arm the background retrain worker: a trip stages a retrain request;
  /// StreamEngine::drift_pump() snapshots the benign window log, rebuilds
  /// `retrain_scheme` on it and publishes the new epoch via the ModelHub.
  bool retrain = false;
  /// Scheme to rebuild — must be one-class (ml::is_one_class_scheme),
  /// because the window log is unlabeled benign-looking traffic.
  std::string retrain_scheme = "MahalanobisThreshold";
  /// Per-stream ring of recent unflagged (benign-looking) windows kept
  /// for retraining.
  std::size_t window_log_capacity = 256;
  /// Fewest logged rows worth retraining on; below this a requested
  /// retrain is skipped (serve.drift.retrains_skipped).
  std::size_t retrain_min_rows = 32;
  /// Row budget for one retrain; larger logs are subsampled
  /// deterministically (seeded pick, temporal order preserved).
  std::size_t retrain_max_rows = 4096;
  std::uint64_t retrain_seed = 1;

  /// kPrecondition error naming the offending field; the nested detector
  /// configs are cascaded with a "DriftConfig" context frame. The retrain
  /// cluster is only checked when `retrain` is set.
  Result<void> try_validate() const;
  /// Throwing wrapper over try_validate() (raises PreconditionError).
  void validate() const { try_validate().value(); }
};

/// Both drift detectors plus the cooldown/hysteresis state for one shard.
/// Owned by the shard worker under its apply mutex; ingest-path cost is
/// O(1) per score outside KS evaluation points.
class ShardDriftDetector {
 public:
  /// Complete snapshot of a shard's drift state.
  struct State {
    PageHinkley::State page_hinkley;
    KsWindowDetector::State ks;
    std::uint64_t scores = 0;          ///< scores observed (lifetime)
    std::uint64_t cooldown_left = 0;   ///< scores of suppression remaining
    std::uint64_t suppressed = 0;      ///< trips swallowed by cooldown
  };

  ShardDriftDetector(const DriftConfig& config, std::size_t shard);

  /// Feed one score (stamped with the epoch that produced it). Returns
  /// the trip event, if any, respecting the cooldown.
  std::optional<DriftEvent> observe(double probability,
                                    std::uint64_t model_version);

  /// A retrained epoch was published: the score distribution legitimately
  /// changed, so both baselines reset and any cooldown is cleared.
  void on_model_swap();

  std::uint64_t scores() const { return scores_; }
  std::uint64_t suppressed() const { return suppressed_; }
  const PageHinkley& page_hinkley() const { return page_hinkley_; }
  const KsWindowDetector& ks() const { return ks_; }

  State state() const;
  void restore(const State& state);

 private:
  std::size_t shard_;
  std::size_t cooldown_scores_;
  PageHinkley page_hinkley_;
  KsWindowDetector ks_;
  std::uint64_t scores_ = 0;
  std::uint64_t cooldown_left_ = 0;
  std::uint64_t suppressed_ = 0;
};

}  // namespace hmd::serve
