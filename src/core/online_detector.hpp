// Runtime detection policy: turns a trained binary classifier into a
// deployable monitor. Raw per-window argmax is unusable under the ~90 %
// malware training prior (it flags everything), so the deployed detector
// thresholds the malware probability and requires consecutive confirmation
// before raising an alarm — trading detection latency for false-positive
// rate, exactly the knob an SOC team tunes.
//
// Deployment counters feed the process metrics registry:
//   online_detector.windows_scored   windows observed (all instances)
//   online_detector.windows_flagged  windows above the flag threshold
//   online_detector.alarms           alarms latched
//   online_detector.alarm_latency_windows  histogram of windows-to-alarm
//   online_detector.batch_us         histogram of score_windows chunk time
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ml/classifier.hpp"
#include "util/result.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace hmd::core {

/// Alarm policy parameters.
struct OnlineDetectorConfig {
  /// Minimum malware probability for a window to be flagged.
  double flag_threshold = 0.97;
  /// Consecutive flagged windows required to raise the alarm.
  std::size_t confirm_windows = 4;
  /// Windows per Classifier::distribution_batch call in score_windows —
  /// the unit of work fanned across the pool. Purely a tuning knob (the
  /// serve engine and benches size it to their batch shape); it never
  /// affects verdicts and is not part of the persisted policy.
  std::size_t score_chunk_windows = 256;

  /// kPrecondition error naming the offending field unless
  /// flag_threshold is in (0, 1), confirm_windows >= 1 and
  /// score_chunk_windows >= 1. Call sites that accept external policy
  /// (the detector constructor, deployment-bundle load) all funnel
  /// through this, so a corrupt persisted policy cannot arm a broken
  /// monitor.
  Result<void> try_validate() const;
  /// Throwing wrapper over try_validate() (raises PreconditionError).
  void validate() const { try_validate().value(); }
};

/// Throws PreconditionError naming `who` and the index of the first
/// counter of `counts` that is NaN or ±inf. Such a window scores a NaN
/// probability, and NaN is never above the flag threshold, so a monitor
/// fed one would never flag it.
void require_finite_window(std::span<const double> counts, const char* who);

/// Stateful per-program monitor. Feed it HPC windows in order; it reports
/// per-window flags and a latched alarm. One instance per monitored
/// program; reset() when the program changes.
class OnlineDetector {
 public:
  /// What the monitor concluded from one window.
  struct Verdict {
    double probability = 0.0;  ///< model's P(malware) for this window
    bool flagged = false;      ///< probability above the threshold
    bool alarm = false;        ///< alarm latched (this window or earlier)
  };

  /// `model` must be a trained binary classifier (class 1 = malware) and
  /// must outlive the detector. Throws PreconditionError for an invalid
  /// config (see OnlineDetectorConfig::validate).
  OnlineDetector(const ml::Classifier& model,
                 OnlineDetectorConfig config = {});

  /// Observe the next window's counter values. Throws PreconditionError
  /// for a non-finite counter (see require_finite_window).
  Verdict observe(std::span<const double> counts);

  /// Advance the streak/alarm state machine on an externally computed
  /// P(malware) — the batched serving path (serve::StreamEngine) scores
  /// whole cross-stream batches through Classifier::distribution_batch
  /// and then applies each probability here, so batched and per-window
  /// scoring share one state machine. observe(w) is exactly
  /// apply_probability(model.distribution(w)[1]).
  Verdict apply_probability(double probability);

  /// Batched deployment-style scoring: `flat` holds consecutive windows of
  /// `window_size` counters each (row-major). Model evaluation — the hot
  /// part — runs through Classifier::distribution_batch in chunks fanned
  /// across `pool` (nullptr = serial); the streak/alarm state machine then
  /// replays serially in window order, so the verdicts and final detector
  /// state are bit-identical to calling observe() on each window in
  /// sequence. Throws PreconditionError naming the window and counter of
  /// the first non-finite value, before any window is scored.
  std::vector<Verdict> score_windows(std::span<const double> flat,
                                     std::size_t window_size,
                                     ThreadPool* pool = nullptr);

  bool alarmed() const { return alarmed_; }
  std::size_t windows_seen() const { return windows_; }
  /// Window index (0-based) at which the alarm latched, or npos.
  std::size_t alarm_window() const { return alarm_window_; }
  static constexpr std::size_t kNoAlarm = static_cast<std::size_t>(-1);

  /// The complete mutable detector state — everything observe() advances.
  /// Snapshotting this and restoring it into a fresh detector over the
  /// same model/policy continues the verdict sequence bit-identically
  /// (the serving engine's checkpoint/restore path is built on this).
  struct State {
    std::size_t windows = 0;
    std::size_t flagged = 0;
    std::size_t streak = 0;
    bool alarmed = false;
    std::size_t alarm_window = kNoAlarm;
  };

  /// Copy out the streak/alarm state.
  State state() const {
    return {windows_, flagged_, streak_, alarmed_, alarm_window_};
  }

  /// Overwrite the streak/alarm state (checkpoint restore). Throws
  /// PreconditionError on internally inconsistent states (flagged or
  /// streak exceeding windows, alarm_window set without alarmed, ...).
  void restore(const State& state);

  /// Fraction of observed windows that were flagged (0 before any window).
  double flag_rate() const {
    return windows_ == 0 ? 0.0
                         : static_cast<double>(flagged_) /
                               static_cast<double>(windows_);
  }

  /// Running summary of the scores of UNFLAGGED windows only (hmd_serve
  /// reports its mean per stream). NOT part of State: restoring a
  /// checkpoint restores behavior, and this never affects verdicts.
  const RunningStats& benign_score_stats() const {
    return benign_score_stats_;
  }

  /// Forget all streak/alarm state (new program under observation).
  void reset();

 private:
  /// Shared streak/alarm update for observe() and score_windows().
  void advance(Verdict& verdict);

  const ml::Classifier& model_;
  OnlineDetectorConfig config_;
  std::size_t windows_ = 0;
  std::size_t flagged_ = 0;
  std::size_t streak_ = 0;
  bool alarmed_ = false;
  std::size_t alarm_window_ = kNoAlarm;
  RunningStats benign_score_stats_;
};

}  // namespace hmd::core
