// Sharded streaming detection engine — the serving path of the detector.
//
// A deployed HMD scores many monitored processes ("streams") at once. This
// engine turns the per-window OnlineDetector into a multi-stream service:
//
//   feeder threads ──ingest──▶ one lock-free ring per shard (spsc_ring.hpp),
//                              │ windows tagged with their stream
//                              │ StreamRouter: stream id → shard
//                              ▼
//   shard workers ──gather──▶ one contiguous cross-stream batch
//                 ──score───▶ a single Classifier::distribution_batch call
//                 ──apply───▶ per-stream OnlineDetector streak/alarm state
//
// Batching across streams is the point: instead of one virtual
// distribution() call (and allocation) per window per stream, a shard
// pops its pending windows, in arrival order, into one columnar-friendly
// block and scores it in one call, keeping the ml kernels' hot path warm.
// Each stream has one serialized feeder and all of its windows enter one
// FIFO, so the streak/alarm state machine replays per stream in the
// feeder's order, and for any shard count the verdict sequence of each
// stream is bit-identical to feeding that stream serially through
// OnlineDetector::observe (pinned by tests/serve/test_stream_engine.cpp).
//
// Backpressure is per shard and bounded (ServeConfig::backpressure):
//   kBlock      — ingest spins until the shard's ring has space (lossless);
//   kDropOldest — ingest discards the shard's oldest unscored window,
//                 whichever stream sent it, and charges it to that stream
//                 (dropped(stream), serve.dropped); the newest window
//                 always wins.
//
// Resilience (serve/resilience.hpp, docs/resilience.md): models arrive
// through a ModelHub — workers pin the current epoch per batch, so a
// hot-swap is one atomic publish and every verdict is stamped with the
// epoch version that scored it. A failing or over-budget primary walks
// the degradation ladder (retry w/ backoff → fallback model → probe &
// recover); only when there is no fallback does the engine latch a fatal
// error (surfaced as an ErrorInfo via drain()/last_error()). snapshot()/
// checkpoint() capture per-stream monitor state for bit-identical restart
// (ServeConfig::restore_from), safely while ingest is live.
//
// Observability (process metrics registry; see docs/serving.md):
//   serve.ingest_total[.shard<k>]    counter   windows accepted (counted by
//                                              the worker per gathered
//                                              batch, plus evictions;
//                                              exact after drain())
//   serve.dropped[.shard<k>]         counter   windows dropped (kDropOldest)
//   serve.batches.shard<k>           counter   batches scored
//   serve.batch_size[.shard<k>]      histogram windows per batch
//   serve.queue_depth.shard<k>       gauge     windows pending after gather
//                                              (produced − consumed − batch)
//   serve.score_us[.shard<k>]        histogram batch score wall time
//   serve.e2e_latency_us[.shard<k>]  histogram ingest → verdict latency of
//                                              window j of a stream iff
//                                              (j + stream id) % 64 == 0
// Ingest itself is one push onto the shard's ring plus a store of the
// stream's accepted count: no clock read (bar the 1-in-64 stamp) and no
// write to a line the worker owns; the rest of the bookkeeping above is
// the worker's, which pops the ring sequentially and never reads the
// feeders' cursor.
// plus the serve.resilience.* family (docs/resilience.md):
//   retries, score_failures, fallback_batches, degrade_events, recoveries,
//   budget_overruns, swaps_observed, errors_swallowed, checkpoints,
//   restored_streams (counters); degraded_shards, model_version (gauges);
// the serve.drift.* family when config.drift.enabled (docs/drift.md):
//   scores, trips, trips_page_hinkley, trips_ks, suppressed,
//   retrains_started, retrains_completed, retrains_failed,
//   retrains_skipped, swaps_published (counters); window_log_rows (gauge);
// the serve.policy.* family when a non-single ensemble policy is active
// (serve/ensemble_policy.hpp, docs/adversarial.md):
//   windows, member<k>.windows, disagreements (counters); members (gauge);
// and a "serve/shard<k>/batch" trace span per scored batch (plus a
// "serve/drift/retrain" span around each background rebuild).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/online_detector.hpp"
#include "ml/classifier.hpp"
#include "serve/drift.hpp"
#include "serve/ensemble_policy.hpp"
#include "serve/resilience.hpp"
#include "util/result.hpp"

namespace hmd::serve {

/// Hard cap on counters per window (the PMU exposes 16 events; reduced
/// feature sets are smaller). Ring slots store this many doubles inline.
inline constexpr std::size_t kMaxWindowWidth = 16;

/// Engine shape and policy. validate() is called by the engine
/// constructor; all fields are fixed for the engine's lifetime.
struct ServeConfig {
  /// Independent scoring workers; streams hash onto shards.
  std::size_t num_shards = 1;
  /// Counters per window (model input width), 1..kMaxWindowWidth.
  std::size_t window_size = 16;
  /// Per-shard ring capacity in windows (rounded up to a power of two).
  /// Ring memory is shards × capacity × 152 B (the slot of a 16-counter
  /// window), independent of the stream count. The default holds the
  /// measured open-loop backlog of 4096 streams over 2 shards (about 2,000
  /// pending windows per shard at 600k windows/s; docs/serving.md) with
  /// room to spare. A feeder under kBlock waits once its shard's ring
  /// holds this many windows; under kDropOldest it then evicts the shard's
  /// oldest window, which may belong to another stream (4096 streams at
  /// 10 ms fill one shard's default ring in ~80 ms of backlog).
  std::size_t ring_capacity = 16384;
  /// Max windows a shard gathers into one cross-stream batch.
  std::size_t max_batch_windows = 1024;

  enum class Backpressure {
    kBlock,      ///< ingest waits for space in the shard's ring (lossless)
    kDropOldest  ///< ingest evicts the shard's oldest pending window
  };
  Backpressure backpressure = Backpressure::kBlock;

  /// Alarm policy replicated into every stream's monitor.
  core::OnlineDetectorConfig policy;

  /// Keep every verdict per stream (StreamEngine::verdicts), plus the
  /// model version that scored it (verdict_versions). Off by default:
  /// long-lived deployments only need the monitor's latched state, not
  /// an unbounded verdict log.
  bool record_verdicts = false;

  /// Retry / fallback / fault-injection policy (serve/resilience.hpp).
  ResilienceConfig resilience;

  /// Concept-drift detection + auto-retrain policy (serve/drift.hpp,
  /// docs/drift.md). Off by default; when enabled each shard watches its
  /// score stream and trips emit DriftEvents (drift_events()); with
  /// drift.retrain the engine also keeps a benign window log and rebuilds
  /// the model through drift_pump()/await_retrain().
  DriftConfig drift;

  /// Scoring policy between shard workers and the hub
  /// (serve/ensemble_policy.hpp, docs/adversarial.md). kSingle (the
  /// default) keeps the engine's direct scoring path, bit-identical to a
  /// policy-free build; majority/stochastic ensembles score through a
  /// ScoringPolicy, stamping each verdict with its scoring member's
  /// version. Degraded shards bypass the policy (fallback scores alone).
  EnsembleConfig ensemble;

  /// Serving precision tier. kFloat scores with the published model as-is
  /// (bit-identical to every prior release). kQ16 passes inputs through
  /// the hardware Q16.16 grid before the unmodified float model — the
  /// exact semantics of hw/evaluate_fixed_point, so the serving scores
  /// match what the RTL datapath would compute. kFpga goes one step
  /// further: the primary is compiled to the netlist IR (hw::compile,
  /// lazily per shard after every hot-swap) and windows are scored by the
  /// cycle-accurate NetlistSimulator — the verdicts the emitted
  /// Verilog/VHDL would produce, bit-exact. Schemes without the respective
  /// lowering silently keep the float path, and degraded/fallback scoring
  /// is always float. Quantized tiers require the kSingle ensemble policy
  /// — ensemble members vote on float scores by design. The tier is part
  /// of a checkpoint's identity: snapshots pin it and a restore under a
  /// different tier fails (see EngineSnapshot).
  enum class Tier { kFloat, kQ16, kFpga };
  Tier tier = Tier::kFloat;

  /// Checkpoint to resume from: streams registered with an id present in
  /// the snapshot pick up that stream's detector state and counters
  /// (first-come for duplicate ids). Null = cold start.
  std::shared_ptr<const EngineSnapshot> restore_from;

  /// The single validation entry point for the whole serving config: own
  /// fields first, then every nested cluster (policy, resilience, drift
  /// when enabled, ensemble). Failures are kPrecondition ErrorInfo values
  /// naming the offending field ("ServeConfig: OnlineDetectorConfig.
  /// flag_threshold: must be in (0, 1)"), so tools can print exactly
  /// which knob is wrong without string-matching exception text.
  Result<void> try_validate() const;
  /// Throwing wrapper over try_validate() (raises PreconditionError) —
  /// called by the engine constructor.
  void validate() const { try_validate().value(); }
};

/// "float", "q16", "fpga" — the --tier spellings and the snapshot pin.
const char* to_string(ServeConfig::Tier tier);
/// Parse a --tier / snapshot tier name; nullopt for anything else.
std::optional<ServeConfig::Tier> tier_from_name(const std::string& name);
/// Every tier spelling, space-separated ("float q16 fpga") — for help
/// texts and unknown-name errors.
std::string tier_names();

/// Deterministic stream-id → shard mapping (splitmix64 hash, mod shards).
/// A stream's shard never changes, so its windows are always consumed by
/// one worker, preserving per-stream order.
class StreamRouter {
 public:
  explicit StreamRouter(std::size_t num_shards);
  std::size_t num_shards() const { return num_shards_; }
  std::size_t shard_of(std::uint64_t stream_id) const;

 private:
  std::size_t num_shards_;
};

/// The engine. Construction spawns one worker per shard; destruction
/// drains and joins. Models come from a ModelHub (hot-swappable) or, for
/// the common static case, a single classifier reference that must
/// outlive the engine.
///
/// Threading contract:
///  * register_stream may be called from any thread, at any time;
///  * each stream's ingest calls must be serialized (one feeder per
///    stream — that is what defines the stream's window order); distinct
///    streams may ingest concurrently from distinct threads;
///  * hub().publish* may be called from any thread while traffic flows;
///  * snapshot()/checkpoint() may be called from any thread, any time —
///    they capture a between-batches state of every monitor;
///  * drain()/shutdown() require producers to have quiesced first;
///  * monitor()/verdicts()/dropped() are stable after drain() returns.
class StreamEngine {
 public:
  using StreamId = std::uint64_t;
  using Verdict = core::OnlineDetector::Verdict;

  /// Opaque per-stream registration returned by register_stream.
  struct Stream;
  using StreamHandle = Stream*;

  /// Serve epochs published to `hub` (at least one must be published
  /// already). The engine shares ownership of the hub; models stay alive
  /// for as long as any in-flight batch pins their epoch.
  explicit StreamEngine(std::shared_ptr<ModelHub> hub,
                        ServeConfig config = {});

  /// Static-model convenience: wraps `model` (trained, binary, must
  /// outlive the engine) in a single-epoch hub.
  explicit StreamEngine(const ml::Classifier& model, ServeConfig config = {});

  ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  const ServeConfig& config() const { return config_; }
  std::size_t num_shards() const { return router_.num_shards(); }
  std::size_t shard_of(StreamId id) const { return router_.shard_of(id); }
  std::size_t num_streams() const;

  /// The model hub — publish here to hot-swap under live traffic.
  ModelHub& hub() { return *hub_; }
  const ModelHub& hub() const { return *hub_; }

  /// Create (and start serving) a new stream. Ids need not be unique —
  /// two registrations are two independent streams that happen to share a
  /// shard. The handle stays valid for the engine's lifetime. When
  /// config().restore_from holds a snapshot with this id, the stream
  /// resumes from the checkpointed detector state.
  StreamHandle register_stream(StreamId id);

  /// Feed the stream's next window (exactly config().window_size
  /// counters, all finite: a NaN or ±inf counter throws PreconditionError
  /// naming its index). Returns false iff the backpressure policy dropped
  /// a window (kDropOldest evicted the shard's oldest, possibly another
  /// stream's; the new window was still accepted). Lock-free except for a
  /// parked-worker wakeup.
  bool ingest(StreamHandle stream, std::span<const double> window);

  /// Block until every ingested window has been scored (producers must
  /// be quiet). Raises the first latched scoring error, if any. Workers
  /// keep running; more windows may be ingested afterwards.
  void drain();

  /// drain(), then stop and join the workers. Idempotent. Raises any
  /// latched error; the destructor instead records it
  /// (serve.resilience.errors_swallowed + a trace event) and stays
  /// silent.
  void shutdown();

  /// The latched engine error as a value, if any — set when a batch
  /// exhausts every recovery option (retries, then fallback). Inspect
  /// without rethrowing; drain()/shutdown() raise() the same ErrorInfo.
  std::optional<ErrorInfo> last_error() const;

  /// Capture a checkpoint of every stream (detector state + counters +
  /// batch high-water). Safe under live ingest: briefly pauses each
  /// shard's apply step so monitors are captured between batches.
  EngineSnapshot snapshot() const;
  /// snapshot() serialized to `out` (EngineSnapshot text format v1).
  void checkpoint(std::ostream& out) const;

  /// True while shard k is scoring on the fallback model.
  bool shard_degraded(std::size_t shard) const;

  /// The active scoring policy, or null when config().ensemble is single
  /// (tests predict the stochastic schedule through it).
  const ScoringPolicy* scoring_policy() const { return policy_.get(); }

  /// Per-stream monitor (streak/alarm state) — read after drain().
  const core::OnlineDetector& monitor(StreamHandle stream) const;
  /// Per-stream verdict log (empty unless config().record_verdicts).
  const std::vector<Verdict>& verdicts(StreamHandle stream) const;
  /// Model-hub epoch version that scored each logged verdict (parallel
  /// to verdicts(); empty unless config().record_verdicts).
  const std::vector<std::uint64_t>& verdict_versions(
      StreamHandle stream) const;
  /// Windows of this stream evicted under kDropOldest (by any feeder of
  /// its shard).
  std::uint64_t dropped(StreamHandle stream) const;
  /// Windows this stream accepted (including later-dropped ones, and a
  /// window whose ingest call is still waiting for ring space).
  std::uint64_t ingested(StreamHandle stream) const;
  /// The most windows of this stream in one gathered batch (so at most
  /// config().max_batch_windows).
  std::uint64_t high_water(StreamHandle stream) const;
  /// Windows accepted across all streams.
  std::uint64_t total_ingested() const;

  // --- Concept drift & auto-retrain (config().drift; docs/drift.md) ---

  /// Every drift trip emitted so far, in detection order. Thread-safe;
  /// stable after drain().
  std::vector<DriftEvent> drift_events() const;

  /// What one drift_pump() call did.
  struct DriftPumpResult {
    /// A background retrain was kicked off on the harvested window log.
    bool retrain_started = false;
    /// Non-zero when a finished retrain's model was published this call —
    /// the new hub epoch version.
    std::uint64_t published_version = 0;
  };

  /// The retrain loop's control point. Call between batches (after a
  /// drain() in tests/tools; on a timer in a long-lived deployment):
  ///   1. a finished retrain's staged model is published to the hub (the
  ///      hot-swap every shard observes on its next batch);
  ///   2. a pending drift trip harvests the benign window log and starts
  ///      the background retrain worker (skipped while one is running or
  ///      when the log has fewer than drift.retrain_min_rows rows).
  /// Publishing only here — never from the worker thread — is what makes
  /// a seeded drift→retrain→swap run deterministic: the swap lands at a
  /// pump point the caller chose, not at a thread-timing accident.
  DriftPumpResult drift_pump();

  /// drift_pump(), wait for any in-flight retrain to finish, then pump
  /// again so the fresh model is published. Returns the published epoch
  /// version (0 when there was nothing to retrain or the retrain failed —
  /// see last_retrain_error()).
  std::uint64_t await_retrain();

  /// Why the most recent retrain failed, if it did (the worker never
  /// throws — a failed rebuild keeps the current epoch serving).
  std::optional<ErrorInfo> last_retrain_error() const;

 private:
  struct Shard;
  struct Batch;
  struct ResilienceInstruments;
  struct DriftInstruments;
  struct PolicyInstruments;

  void worker_loop(Shard& shard);
  /// One batch through the degradation ladder; returns false when the
  /// batch could not be scored at all (error latched, windows dropped).
  bool score_batch(Shard& shard, Batch& batch);
  void enter_degraded(Shard& shard, const char* reason);
  void leave_degraded(Shard& shard);
  void latch_error(ErrorInfo error);
  void drain_internal();
  void join_workers();
  void rethrow_if_failed();
  /// Wake the shard's worker if it is parked (clears the flag).
  void wake(Shard& shard);

  /// Called by a shard worker (under its apply mutex) when its detector
  /// trips: logs the event, bumps metrics, flags a pending retrain.
  void record_drift_event(const DriftEvent& event);
  /// Copy the benign window logs of every stream, oldest-first per stream,
  /// streams in registration order. Takes every apply lock (callers must
  /// hold neither apply locks nor drift_mutex_).
  std::vector<double> harvest_window_log() const;
  /// Background thread body: rebuild drift.retrain_scheme on `rows` and
  /// stage the result for the next pump.
  void retrain_worker(std::vector<double> rows);
  void join_retrain_thread();

  std::shared_ptr<ModelHub> hub_;
  ServeConfig config_;
  StreamRouter router_;

  mutable std::mutex streams_mutex_;
  std::vector<std::unique_ptr<Stream>> streams_;
  /// restore_from entries already claimed by a registration.
  std::vector<bool> restore_claimed_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> stop_{false};
  bool joined_ = false;

  std::unique_ptr<ResilienceInstruments> res_;
  std::atomic<std::size_t> degraded_count_{0};

  /// Non-null iff config_.ensemble.kind != kSingle. Shared by all shard
  /// workers (stateless; scratch lives in each worker's Batch).
  std::unique_ptr<ScoringPolicy> policy_;
  std::unique_ptr<PolicyInstruments> policy_ins_;

  mutable std::mutex error_mutex_;
  std::optional<ErrorInfo> first_error_;
  bool error_reported_ = false;  ///< raised to a caller at least once
  std::atomic<bool> failed_{false};

  // Drift + retrain state. Lock order: a shard's apply_mutex may be held
  // when taking drift_mutex_ (record_drift_event); NEVER take an apply
  // mutex while holding drift_mutex_ — harvest_window_log runs before
  // drift_mutex_ in drift_pump for exactly this reason.
  std::unique_ptr<DriftInstruments> drift_ins_;
  mutable std::mutex drift_mutex_;
  std::vector<DriftEvent> drift_events_;
  std::atomic<bool> retrain_requested_{false};
  std::thread retrain_thread_;
  bool retrain_running_ = false;        ///< under drift_mutex_
  std::condition_variable retrain_cv_;  ///< signals retrain_running_ false
  std::shared_ptr<const ml::Classifier> staged_model_;  ///< under drift_mutex_
  std::optional<ErrorInfo> retrain_error_;              ///< under drift_mutex_
};

}  // namespace hmd::serve
