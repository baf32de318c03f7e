#include "serve/resilience.hpp"

#include <chrono>
#include <istream>
#include <ostream>
#include <string>
#include <thread>

#include "core/deployment.hpp"
#include "util/rng.hpp"
#include "util/token_reader.hpp"

namespace hmd::serve {

// --------------------------------------------------------------------------
// ModelHub
// --------------------------------------------------------------------------

namespace {

void validate_epoch_models(const ml::Classifier& primary,
                           const ml::Classifier* fallback) {
  HMD_REQUIRE(primary.num_classes() == 2,
              "ModelHub: primary must be a trained binary classifier");
  if (fallback != nullptr)
    HMD_REQUIRE(fallback->num_classes() == primary.num_classes(),
                "ModelHub: fallback class count differs from primary");
}

}  // namespace

std::uint64_t ModelHub::publish(
    std::shared_ptr<const ml::Classifier> primary,
    std::shared_ptr<const ml::Classifier> fallback) {
  HMD_REQUIRE(primary != nullptr, "ModelHub::publish: null primary");
  validate_epoch_models(*primary, fallback.get());
  auto epoch = std::make_shared<Epoch>();
  epoch->primary = std::move(primary);
  epoch->fallback = std::move(fallback);
  std::lock_guard<std::mutex> lock(mutex_);
  epoch->version = next_version_++;
  current_ = std::move(epoch);
  return current_->version;
}

std::uint64_t ModelHub::publish_unowned(const ml::Classifier& primary,
                                        const ml::Classifier* fallback) {
  // Aliasing shared_ptrs with an empty owner: no lifetime management,
  // same epoch plumbing as owned models.
  std::shared_ptr<const ml::Classifier> p(std::shared_ptr<void>(), &primary);
  std::shared_ptr<const ml::Classifier> f;
  if (fallback != nullptr)
    f = std::shared_ptr<const ml::Classifier>(std::shared_ptr<void>(),
                                              fallback);
  return publish(std::move(p), std::move(f));
}

Result<std::uint64_t> ModelHub::publish_from_stream(std::istream& in) {
  Result<core::DeploymentBundle> loaded = core::try_load_bundle(in);
  if (!loaded)
    return Result<std::uint64_t>(std::move(loaded.error()))
        .with_context("hot-swap rejected");
  // The bundle owns the models; aliasing shared_ptrs keep it alive for as
  // long as any batch holds the epoch.
  auto bundle =
      std::make_shared<core::DeploymentBundle>(std::move(loaded).value());
  std::shared_ptr<const ml::Classifier> primary(bundle, &bundle->model());
  std::shared_ptr<const ml::Classifier> fallback;
  if (bundle->fallback_model() != nullptr)
    fallback = std::shared_ptr<const ml::Classifier>(bundle,
                                                     bundle->fallback_model());
  return capture_result([&] {
    return publish(std::move(primary), std::move(fallback));
  }).with_context("hot-swap rejected");
}

std::shared_ptr<const ModelHub::Epoch> ModelHub::current() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

std::uint64_t ModelHub::version() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_ ? current_->version : 0;
}

// --------------------------------------------------------------------------
// EngineSnapshot
// --------------------------------------------------------------------------

namespace {

void write_hex_vector(std::ostream& out, const char* keyword,
                      const std::vector<double>& values) {
  out << keyword << " " << values.size();
  for (double v : values) out << " " << hexfloat(v);
  out << "\n";
}

}  // namespace

void EngineSnapshot::write(std::ostream& out) const {
  out << "hmd-snapshot v1\n";
  out << "model_version " << model_version << "\n";
  out << "streams " << streams.size() << "\n";
  for (const StreamSnapshot& s : streams) {
    out << "stream " << s.id << " accepted " << s.accepted << " evicted "
        << s.evicted << " high_water " << s.high_water << " windows "
        << s.detector.windows << " flagged " << s.detector.flagged
        << " streak " << s.detector.streak << " alarmed "
        << (s.detector.alarmed ? 1 : 0) << " alarm_window ";
    if (s.detector.alarmed)
      out << s.detector.alarm_window;
    else
      out << "-";
    out << "\n";
  }
  if (!drift.empty()) {
    // Optional trailing drift section — readers that predate it stop at
    // the last stream line, readers that expect it treat EOF as "none".
    out << "drift_shards " << drift.size() << "\n";
    for (const DriftShardSnapshot& d : drift) {
      const ShardDriftDetector::State& st = d.state;
      out << "drift_shard " << d.shard << " scores " << st.scores
          << " cooldown_left " << st.cooldown_left << " suppressed "
          << st.suppressed << "\n";
      out << "ph count " << st.page_hinkley.count << " mean "
          << hexfloat(st.page_hinkley.mean) << " cumulative "
          << hexfloat(st.page_hinkley.cumulative) << " minimum "
          << hexfloat(st.page_hinkley.minimum) << " last_deviation "
          << hexfloat(st.page_hinkley.last_deviation) << " trips "
          << st.page_hinkley.trips << "\n";
      out << "ks observed " << st.ks.observed << " last_statistic "
          << hexfloat(st.ks.last_statistic) << " trips " << st.ks.trips
          << "\n";
      write_hex_vector(out, "ks_reference", st.ks.reference);
      write_hex_vector(out, "ks_current", st.ks.current);
    }
  }
  // Optional policy section (after drift): pins the scoring-policy
  // identity so a restore under a different policy fails loudly.
  if (policy.present)
    out << "policy " << policy.kind << " seed " << policy.seed << " members "
        << policy.members << "\n";
  // Optional tier section (after policy): pins the serving precision tier
  // the same way — a restore under a different tier fails loudly.
  if (tier.present) out << "tier " << tier.name << "\n";
}

namespace {

StreamSnapshot read_stream(TokenReader& reader) {
  StreamSnapshot s;
  core::OnlineDetector::State& d = s.detector;
  reader.line("stream");
  s.id = reader.count("stream");
  s.accepted = reader.count_field("accepted");
  s.evicted = reader.count_field("evicted");
  s.high_water = reader.count_field("high_water");
  d.windows = reader.count_field("windows");
  d.flagged = reader.count_field("flagged");
  d.streak = reader.count_field("streak");
  reader.keyword("alarmed");
  d.alarmed = reader.flag("alarmed");
  reader.keyword("alarm_window");
  if (reader.peek() == "-") {
    reader.word("alarm_window");
    d.alarm_window = core::OnlineDetector::kNoAlarm;
  } else {
    d.alarm_window = reader.count("alarm_window");
  }
  reader.end_line();
  // Cross-field consistency is OnlineDetector::restore's job; reject
  // here so a corrupt snapshot fails at load, not mid-restore.
  if (d.alarmed != (d.alarm_window != core::OnlineDetector::kNoAlarm) ||
      d.flagged > d.windows || d.streak > d.flagged)
    reader.fail("stream", "inconsistent detector state for stream " +
                              std::to_string(s.id));
  return s;
}

DriftShardSnapshot read_drift_shard(TokenReader& reader) {
  DriftShardSnapshot d;
  ShardDriftDetector::State& st = d.state;
  reader.line("drift_shard");
  d.shard = reader.count("drift_shard");
  st.scores = reader.count_field("scores");
  st.cooldown_left = reader.count_field("cooldown_left");
  st.suppressed = reader.count_field("suppressed");
  reader.end_line();
  reader.line("ph");
  st.page_hinkley.count = reader.count_field("count");
  st.page_hinkley.mean = reader.real_field("mean");
  st.page_hinkley.cumulative = reader.real_field("cumulative");
  st.page_hinkley.minimum = reader.real_field("minimum");
  st.page_hinkley.last_deviation = reader.real_field("last_deviation");
  st.page_hinkley.trips = reader.count_field("trips");
  reader.end_line();
  reader.line("ks");
  st.ks.observed = reader.count_field("observed");
  st.ks.last_statistic = reader.real_field("last_statistic");
  st.ks.trips = reader.count_field("trips");
  reader.end_line();
  reader.line("ks_reference");
  st.ks.reference = reader.counted_reals("ks_reference");
  reader.line("ks_current");
  st.ks.current = reader.counted_reals("ks_current");
  return d;
}

EngineSnapshot read_snapshot(TokenReader& reader) {
  reader.header("hmd-snapshot", {"v1"});

  EngineSnapshot snapshot;
  snapshot.model_version = reader.count_line("model_version");
  const std::uint64_t streams = reader.count_line("streams");
  for (std::uint64_t i = 0; i < streams; ++i)
    snapshot.streams.push_back(read_stream(reader));

  // Optional trailing sections, in order: drift, then policy, then tier.
  // End of input at any point means a snapshot written before that layer
  // existed, or by an engine running without it — all load fine.
  if (!reader.next_line()) return snapshot;
  if (reader.peek() == "drift_shards") {
    const std::uint64_t shards = reader.count_field("drift_shards");
    reader.end_line();
    for (std::uint64_t i = 0; i < shards; ++i)
      snapshot.drift.push_back(read_drift_shard(reader));
    if (!reader.next_line()) return snapshot;
  }
  if (reader.peek() == "policy") {
    reader.keyword("policy");
    snapshot.policy.kind = reader.word("policy");
    snapshot.policy.seed = reader.count_field("seed");
    snapshot.policy.members = reader.count_field("members");
    reader.end_line();
    snapshot.policy.present = true;
    if (!reader.next_line()) return snapshot;
  }
  reader.keyword("tier");  // the last optional section
  snapshot.tier.name = reader.word("tier");
  reader.end_line();
  snapshot.tier.present = true;
  return snapshot;
}

}  // namespace

Result<EngineSnapshot> EngineSnapshot::read(std::istream& in) {
  return capture_result([&in] {
           TokenReader reader(in, "snapshot");
           return read_snapshot(reader);
         })
      .with_context("reading engine snapshot");
}

EngineSnapshot EngineSnapshot::read_or_throw(std::istream& in) {
  return read(in).value();
}

// --------------------------------------------------------------------------
// FaultInjector
// --------------------------------------------------------------------------

Result<void> FaultPlan::try_validate() const {
  if (!(score_throw_rate >= 0.0 && score_throw_rate <= 1.0))
    return ErrorInfo(ErrCode::kPrecondition,
                     "FaultPlan.score_throw_rate: must be in [0, 1]");
  if (!(slow_batch_rate >= 0.0 && slow_batch_rate <= 1.0))
    return ErrorInfo(ErrCode::kPrecondition,
                     "FaultPlan.slow_batch_rate: must be in [0, 1]");
  if (throw_burst < 1)
    return ErrorInfo(ErrCode::kPrecondition,
                     "FaultPlan.throw_burst: must be >= 1");
  return {};
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(plan) {
  plan_.validate();
}

namespace {

/// Deterministic uniform [0, 1) from (seed, shard, ordinal, salt) — a few
/// splitmix64 steps over a mixed key. Pure, so tests can predict the
/// fault schedule.
double fault_uniform(std::uint64_t seed, std::size_t shard,
                     std::uint64_t ordinal, std::uint64_t salt) {
  std::uint64_t x = seed;
  x ^= splitmix64(x) + static_cast<std::uint64_t>(shard);
  x ^= splitmix64(x) + ordinal;
  x ^= splitmix64(x) + salt;
  const std::uint64_t bits = splitmix64(x);
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

bool FaultInjector::batch_throws(std::size_t shard,
                                 std::uint64_t ordinal) const {
  if (ordinal < plan_.fail_first_batches) return true;
  return plan_.score_throw_rate > 0.0 &&
         fault_uniform(plan_.seed, shard, ordinal, /*salt=*/1) <
             plan_.score_throw_rate;
}

bool FaultInjector::batch_is_slow(std::size_t shard,
                                  std::uint64_t ordinal) const {
  return plan_.slow_batch_rate > 0.0 &&
         fault_uniform(plan_.seed, shard, ordinal, /*salt=*/2) <
             plan_.slow_batch_rate;
}

void FaultInjector::on_score_attempt(std::size_t shard, std::uint64_t ordinal,
                                     std::size_t attempt) {
  if (attempt == 0 && plan_.slow_batch_us > 0 &&
      batch_is_slow(shard, ordinal)) {
    delays_injected_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(plan_.slow_batch_us));
  }
  if (!batch_throws(shard, ordinal)) return;
  // fail_first_batches faults every attempt (forces retry exhaustion);
  // rate-chosen faults fail only the first throw_burst attempts, so a
  // retry budget >= throw_burst masks them completely.
  if (ordinal >= plan_.fail_first_batches && attempt >= plan_.throw_burst)
    return;
  throws_injected_.fetch_add(1, std::memory_order_relaxed);
  throw InjectedFault("injected scoring fault (shard " +
                      std::to_string(shard) + ", batch " +
                      std::to_string(ordinal) + ", attempt " +
                      std::to_string(attempt) + ")");
}

// --------------------------------------------------------------------------
// ResilienceConfig
// --------------------------------------------------------------------------

Result<void> ResilienceConfig::try_validate() const {
  if (degrade_after < 1)
    return ErrorInfo(ErrCode::kPrecondition,
                     "ResilienceConfig.degrade_after: must be >= 1");
  if (probe_every < 1)
    return ErrorInfo(ErrCode::kPrecondition,
                     "ResilienceConfig.probe_every: must be >= 1");
  if (budget_strikes < 1)
    return ErrorInfo(ErrCode::kPrecondition,
                     "ResilienceConfig.budget_strikes: must be >= 1");
  if (faults)
    return std::move(faults->plan().try_validate())
        .with_context("ResilienceConfig");
  return {};
}

}  // namespace hmd::serve
