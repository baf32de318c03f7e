#include "serve/drift.hpp"

#include <algorithm>
#include <cmath>

#include "ml/registry.hpp"
#include "util/error.hpp"

namespace hmd::serve {

// ---------------------------------------------------------------------------
// Page–Hinkley

Result<void> PageHinkleyConfig::try_validate() const {
  if (delta < 0.0)
    return ErrorInfo(ErrCode::kPrecondition,
                     "PageHinkleyConfig.delta: must be >= 0");
  if (lambda <= 0.0)
    return ErrorInfo(ErrCode::kPrecondition,
                     "PageHinkleyConfig.lambda: must be > 0");
  if (min_samples == 0)
    return ErrorInfo(ErrCode::kPrecondition,
                     "PageHinkleyConfig.min_samples: must be >= 1");
  return {};
}

PageHinkley::PageHinkley(PageHinkleyConfig config)
    : config_(config) {
  config_.validate();
}

bool PageHinkley::observe(double x) {
  // A non-finite score would stay in the running mean for good; skip it.
  if (!std::isfinite(x)) return false;
  State& s = state_;
  ++s.count;
  s.mean += (x - s.mean) / static_cast<double>(s.count);
  s.cumulative += x - s.mean - config_.delta;
  s.minimum = std::min(s.minimum, s.cumulative);
  s.last_deviation = s.cumulative - s.minimum;
  if (s.count <= config_.min_samples) return false;
  if (s.last_deviation <= config_.lambda) return false;
  const std::uint64_t trips = s.trips + 1;
  const double tripping_deviation = s.last_deviation;
  reset();
  state_.trips = trips;
  // Keep the tripping statistic readable after the internal re-baseline so
  // callers can report it in the DriftEvent; an explicit reset() clears it.
  state_.last_deviation = tripping_deviation;
  return true;
}

void PageHinkley::reset() {
  const std::uint64_t trips = state_.trips;
  state_ = State{};
  state_.trips = trips;
}

namespace {

/// Restored states may be built in code, past the snapshot reader: a NaN
/// stays in Page–Hinkley's sums for good, and hangs the KS merge sweep.
void require_not_nan(double v, const char* field) {
  if (std::isnan(v))
    throw PreconditionError(std::string(field) + ": NaN in restored state");
}

}  // namespace

void PageHinkley::restore(const State& state) {
  require_not_nan(state.mean, "PageHinkley::State.mean");
  require_not_nan(state.cumulative, "PageHinkley::State.cumulative");
  require_not_nan(state.minimum, "PageHinkley::State.minimum");
  require_not_nan(state.last_deviation, "PageHinkley::State.last_deviation");
  state_ = state;
}

// ---------------------------------------------------------------------------
// Windowed two-sample KS

Result<void> KsConfig::try_validate() const {
  if (window < 8)
    return ErrorInfo(ErrCode::kPrecondition,
                     "KsConfig.window: must be >= 8");
  if (threshold <= 0.0 || threshold > 1.0)
    return ErrorInfo(ErrCode::kPrecondition,
                     "KsConfig.threshold: must be in (0, 1]");
  if (stride == 0)
    return ErrorInfo(ErrCode::kPrecondition,
                     "KsConfig.stride: must be >= 1");
  return {};
}

KsWindowDetector::KsWindowDetector(KsConfig config) : config_(config) {
  config_.validate();
  reference_.reserve(config_.window);
  ring_.reserve(config_.window);
}

double KsWindowDetector::ks_statistic(std::vector<double> a,
                                      std::vector<double> b) {
  if (a.empty() || b.empty())
    throw PreconditionError("ks_statistic requires non-empty samples");
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  // Two-pointer sweep over the merged order: at every step advance the
  // pointer(s) with the smaller value (ties advance both, so equal values
  // never contribute a spurious gap) and track sup |F_a - F_b|.
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  std::size_t ia = 0, ib = 0;
  double d = 0.0;
  while (ia < a.size() && ib < b.size()) {
    const double va = a[ia], vb = b[ib];
    if (va <= vb) while (ia < a.size() && a[ia] == va) ++ia;
    if (vb <= va) while (ib < b.size() && b[ib] == vb) ++ib;
    d = std::max(d, std::fabs(static_cast<double>(ia) / na -
                              static_cast<double>(ib) / nb));
  }
  return d;
}

bool KsWindowDetector::observe(double x) {
  // NaN breaks the ordering ks_statistic's sort and merge sweep rely on
  // (the sweep never steps past it), and ±inf is no score a model
  // produces; skip both.
  if (!std::isfinite(x)) return false;
  ++observed_;
  if (reference_.size() < config_.window) {
    reference_.push_back(x);
    return false;
  }
  if (ring_.size() < config_.window) {
    ring_.push_back(x);
    if (ring_.size() < config_.window) return false;
  } else {
    ring_[head_] = x;
    head_ = (head_ + 1) % config_.window;
  }
  // Ring is full: evaluate on the stride grid (counted from the point the
  // window first filled, so the first full window is always evaluated).
  const std::uint64_t since_full =
      observed_ - static_cast<std::uint64_t>(2 * config_.window);
  if (since_full % config_.stride != 0) return false;
  last_statistic_ = ks_statistic(reference_, ring_);
  if (last_statistic_ <= config_.threshold) return false;
  const std::uint64_t trips = trips_ + 1;
  const double tripping_statistic = last_statistic_;
  reset();
  trips_ = trips;
  // Keep the tripping D readable after the internal re-baseline so callers
  // can report it in the DriftEvent; an explicit reset() clears it.
  last_statistic_ = tripping_statistic;
  return true;
}

void KsWindowDetector::reset() {
  reference_.clear();
  ring_.clear();
  head_ = 0;
  observed_ = 0;
  last_statistic_ = 0.0;
  // trips_ deliberately kept: lifetime counter.
}

KsWindowDetector::State KsWindowDetector::state() const {
  State s;
  s.reference = reference_;
  // Normalize the ring to chronological (oldest first): once full, head_
  // points at the oldest element.
  s.current.reserve(ring_.size());
  if (ring_.size() == config_.window) {
    for (std::size_t i = 0; i < ring_.size(); ++i)
      s.current.push_back(ring_[(head_ + i) % ring_.size()]);
  } else {
    s.current = ring_;
  }
  s.observed = observed_;
  s.last_statistic = last_statistic_;
  s.trips = trips_;
  return s;
}

void KsWindowDetector::restore(const State& state) {
  if (state.reference.size() > config_.window ||
      state.current.size() > config_.window)
    throw PreconditionError("ks snapshot larger than configured window");
  for (double v : state.reference)
    require_not_nan(v, "KsWindowDetector::State.reference");
  for (double v : state.current)
    require_not_nan(v, "KsWindowDetector::State.current");
  reference_ = state.reference;
  ring_ = state.current;
  head_ = 0;  // chronological layout: next overwrite is the oldest slot
  observed_ = state.observed;
  last_statistic_ = state.last_statistic;
  trips_ = state.trips;
}

// ---------------------------------------------------------------------------
// Event / config

std::string to_string(DriftEvent::Detector detector) {
  switch (detector) {
    case DriftEvent::Detector::kPageHinkley: return "page_hinkley";
    case DriftEvent::Detector::kKs: return "ks";
  }
  throw Error("unknown drift detector enumerator");
}

Result<void> DriftConfig::try_validate() const {
  if (Result<void> r = page_hinkley.try_validate(); !r)
    return std::move(r).with_context("DriftConfig");
  if (Result<void> r = ks.try_validate(); !r)
    return std::move(r).with_context("DriftConfig");
  if (!retrain) return {};
  if (!ml::is_one_class_scheme(retrain_scheme))
    return ErrorInfo(
        ErrCode::kPrecondition,
        "DriftConfig.retrain_scheme: must be one-class (got \"" +
            retrain_scheme + "\"; the window log is unlabeled benign "
            "traffic)");
  if (window_log_capacity == 0)
    return ErrorInfo(ErrCode::kPrecondition,
                     "DriftConfig.window_log_capacity: must be >= 1");
  if (retrain_min_rows < 8)
    return ErrorInfo(
        ErrCode::kPrecondition,
        "DriftConfig.retrain_min_rows: must be >= 8 (one-class training "
        "floor)");
  if (retrain_max_rows < retrain_min_rows)
    return ErrorInfo(ErrCode::kPrecondition,
                     "DriftConfig.retrain_max_rows: must be >= "
                     "retrain_min_rows");
  return {};
}

// ---------------------------------------------------------------------------
// ShardDriftDetector

ShardDriftDetector::ShardDriftDetector(const DriftConfig& config,
                                       std::size_t shard)
    : shard_(shard),
      cooldown_scores_(config.cooldown_scores),
      page_hinkley_(config.page_hinkley),
      ks_(config.ks) {}

std::optional<DriftEvent> ShardDriftDetector::observe(
    double probability, std::uint64_t model_version) {
  ++scores_;
  // Both detectors always observe — the cooldown gates trip EMISSION, not
  // observation, so baselines keep tracking the stream during hysteresis.
  const bool ph_trip = page_hinkley_.observe(probability);
  const double ph_stat = page_hinkley_.deviation();
  const bool ks_trip = ks_.observe(probability);
  if (cooldown_left_ > 0) {
    --cooldown_left_;
    if (ph_trip || ks_trip) ++suppressed_;
    return std::nullopt;
  }
  if (!ph_trip && !ks_trip) return std::nullopt;
  DriftEvent event;
  // When both fire on the same score, report Page–Hinkley (the cheaper,
  // more interpretable statistic); the other's trip counter still advanced.
  if (ph_trip) {
    event.detector = DriftEvent::Detector::kPageHinkley;
    event.statistic = ph_stat;
  } else {
    event.detector = DriftEvent::Detector::kKs;
    event.statistic = ks_.last_statistic();
  }
  event.shard = shard_;
  event.score_index = scores_;
  event.model_version = model_version;
  // One trip re-baselines BOTH detectors: they watch the same stream, and
  // a stale sibling baseline would re-trip immediately on the same shift.
  page_hinkley_.reset();
  ks_.reset();
  cooldown_left_ = cooldown_scores_;
  return event;
}

void ShardDriftDetector::on_model_swap() {
  page_hinkley_.reset();
  ks_.reset();
  cooldown_left_ = 0;
}

ShardDriftDetector::State ShardDriftDetector::state() const {
  State s;
  s.page_hinkley = page_hinkley_.state();
  s.ks = ks_.state();
  s.scores = scores_;
  s.cooldown_left = cooldown_left_;
  s.suppressed = suppressed_;
  return s;
}

void ShardDriftDetector::restore(const State& state) {
  page_hinkley_.restore(state.page_hinkley);
  ks_.restore(state.ks);
  scores_ = state.scores;
  cooldown_left_ = state.cooldown_left;
  suppressed_ = state.suppressed;
}

}  // namespace hmd::serve
