#include "core/online_detector.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace hmd::core {

namespace {

/// Deployment-side instruments, resolved once per process.
struct DetectorInstruments {
  Counter& windows_scored;
  Counter& windows_flagged;
  Counter& alarms;
  Histogram& alarm_latency_windows;
  Histogram& batch_us;

  static DetectorInstruments& get() {
    static DetectorInstruments instance{
        metrics().counter("online_detector.windows_scored"),
        metrics().counter("online_detector.windows_flagged"),
        metrics().counter("online_detector.alarms"),
        metrics().histogram("online_detector.alarm_latency_windows",
                            default_count_buckets()),
        metrics().histogram("online_detector.batch_us",
                            default_latency_buckets_us())};
    return instance;
  }
};

}  // namespace

Result<void> OnlineDetectorConfig::try_validate() const {
  if (!(flag_threshold > 0.0 && flag_threshold < 1.0))
    return ErrorInfo(
        ErrCode::kPrecondition,
        "OnlineDetectorConfig.flag_threshold: must be in (0, 1)");
  if (confirm_windows < 1)
    return ErrorInfo(ErrCode::kPrecondition,
                     "OnlineDetectorConfig.confirm_windows: must be >= 1");
  if (score_chunk_windows < 1)
    return ErrorInfo(
        ErrCode::kPrecondition,
        "OnlineDetectorConfig.score_chunk_windows: must be >= 1");
  return {};
}

void require_finite_window(std::span<const double> counts, const char* who) {
  for (std::size_t i = 0; i < counts.size(); ++i)
    if (!std::isfinite(counts[i])) [[unlikely]]
      throw PreconditionError(std::string(who) + ": counter " +
                              std::to_string(i) + " is not finite");
}

OnlineDetector::OnlineDetector(const ml::Classifier& model,
                               OnlineDetectorConfig config)
    : model_(model), config_(config) {
  config_.validate();
}

void OnlineDetector::advance(Verdict& verdict) {
  DetectorInstruments& instruments = DetectorInstruments::get();
  verdict.flagged = verdict.probability > config_.flag_threshold;
  instruments.windows_scored.add();
  if (verdict.flagged) {
    ++flagged_;
    instruments.windows_flagged.add();
  } else {
    benign_score_stats_.add(verdict.probability);
  }
  streak_ = verdict.flagged ? streak_ + 1 : 0;
  if (!alarmed_ && streak_ >= config_.confirm_windows) {
    alarmed_ = true;
    alarm_window_ = windows_;
    instruments.alarms.add();
    instruments.alarm_latency_windows.record(
        static_cast<double>(windows_ + 1));
  }
  verdict.alarm = alarmed_;
  ++windows_;
}

OnlineDetector::Verdict OnlineDetector::observe(
    std::span<const double> counts) {
  HMD_REQUIRE(model_.num_classes() == 2,
              "OnlineDetector needs a binary (benign/malware) model");
  require_finite_window(counts, "OnlineDetector::observe");
  return apply_probability(model_.distribution(counts)[1]);
}

OnlineDetector::Verdict OnlineDetector::apply_probability(
    double probability) {
  Verdict verdict;
  verdict.probability = probability;
  advance(verdict);
  return verdict;
}

std::vector<OnlineDetector::Verdict> OnlineDetector::score_windows(
    std::span<const double> flat, std::size_t window_size, ThreadPool* pool) {
  HMD_REQUIRE(model_.num_classes() == 2,
              "OnlineDetector needs a binary (benign/malware) model");
  HMD_REQUIRE(window_size > 0, "score_windows: window_size must be positive");
  HMD_REQUIRE(flat.size() % window_size == 0,
              "score_windows: input not a whole number of windows");
  const std::size_t num_windows = flat.size() / window_size;
  HMD_TRACE_SPAN("online_detector/score_windows");
  // Every window is checked before any is scored, so a rejected call
  // advances no monitor state (see require_finite_window).
  for (std::size_t i = 0; i < flat.size(); ++i)
    if (!std::isfinite(flat[i])) [[unlikely]]
      throw PreconditionError("OnlineDetector::score_windows: window " +
                              std::to_string(i / window_size) +
                              ": counter " +
                              std::to_string(i % window_size) +
                              " is not finite");

  // Stage 1 (parallel): per-window malware probabilities, computed chunk
  // by chunk through distribution_batch so schemes with buffer-reusing
  // overrides avoid a heap allocation per window. Each chunk writes a
  // disjoint slice; each slot is written once.
  std::vector<double> probabilities(num_windows);
  const std::size_t chunk = config_.score_chunk_windows;
  const std::size_t num_chunks = (num_windows + chunk - 1) / chunk;
  DetectorInstruments& instruments = DetectorInstruments::get();
  parallel_for(pool, num_chunks, [&](std::size_t c) {
    const std::size_t begin = c * chunk;
    const std::size_t count = std::min(chunk, num_windows - begin);
    TraceSpan timer("");
    std::vector<double> dist(count * 2);
    model_.distribution_batch(
        flat.subspan(begin * window_size, count * window_size), window_size,
        dist);
    for (std::size_t w = 0; w < count; ++w)
      probabilities[begin + w] = dist[w * 2 + 1];
    instruments.batch_us.record(timer.elapsed_seconds() * 1e6);
  });

  // Stage 2 (serial): the order-dependent streak/alarm state machine,
  // mirroring observe() exactly.
  std::vector<Verdict> verdicts;
  verdicts.reserve(num_windows);
  for (std::size_t w = 0; w < num_windows; ++w)
    verdicts.push_back(apply_probability(probabilities[w]));
  return verdicts;
}

void OnlineDetector::restore(const State& state) {
  HMD_REQUIRE(state.flagged <= state.windows,
              "OnlineDetector::restore: flagged exceeds windows");
  HMD_REQUIRE(state.streak <= state.flagged,
              "OnlineDetector::restore: streak exceeds flagged");
  HMD_REQUIRE(state.alarmed == (state.alarm_window != kNoAlarm),
              "OnlineDetector::restore: alarmed and alarm_window disagree");
  HMD_REQUIRE(!state.alarmed || state.alarm_window < state.windows,
              "OnlineDetector::restore: alarm_window beyond windows seen");
  windows_ = state.windows;
  flagged_ = state.flagged;
  streak_ = state.streak;
  alarmed_ = state.alarmed;
  alarm_window_ = state.alarm_window;
}

void OnlineDetector::reset() {
  windows_ = 0;
  flagged_ = 0;
  streak_ = 0;
  alarmed_ = false;
  alarm_window_ = kNoAlarm;
  benign_score_stats_.clear();
}

}  // namespace hmd::core
