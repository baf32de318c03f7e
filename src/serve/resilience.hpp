// Resilience layer for the streaming detection engine.
//
// A monitor that dies — or silently stops scoring — is worse than a noisy
// one: the window in which an HMD is blind is exactly the window malware
// needs. This header holds the four pieces that keep serve::StreamEngine
// scoring through model updates, restarts and faults (docs/resilience.md
// has the full protocol write-ups):
//
//   ModelHub        versioned hot-swap. Classifier epochs are published as
//                   shared_ptr<const Epoch>; shard workers pin the current
//                   epoch per batch, so a swap under live traffic is one
//                   atomic pointer exchange and old epochs die when the
//                   last in-flight batch releases them. Every verdict is
//                   stamped with the epoch version that produced it.
//
//   EngineSnapshot  checkpoint/restore. Serializes per-stream monitor
//                   state (OnlineDetector::State), accept/evict counters
//                   and the batch high-water mark into a small versioned
//                   text artifact; an engine constructed with a snapshot
//                   continues the verdict sequence bit-identically.
//
//   FaultInjector   deterministic fault injection for tests. A seeded
//                   FaultPlan decides — as a pure function of (shard,
//                   batch ordinal, attempt) — which scoring attempts throw
//                   and which batches are artificially slow, so a fault
//                   soak is exactly reproducible from its seed.
//
//   ResilienceConfig  degradation policy: retry budget with backoff,
//                   consecutive-failure threshold for falling back to the
//                   bundle's cheap secondary model, latency budget, and
//                   the probe cadence for recovering onto the primary.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/online_detector.hpp"
#include "ml/classifier.hpp"
#include "serve/drift.hpp"
#include "util/error.hpp"
#include "util/result.hpp"

namespace hmd::serve {

// ---------------------------------------------------------------------------
// ModelHub — versioned model hot-swap
// ---------------------------------------------------------------------------

/// Publishes classifier epochs to the serving path. Thread-safe: any
/// thread may publish while shard workers read. Workers call current()
/// once per batch and hold the returned shared_ptr for the batch's
/// lifetime, so publish never invalidates an in-flight score.
class ModelHub {
 public:
  /// One published model generation. `fallback` (the degraded-mode
  /// secondary) may be null — degradation then has nowhere to go and a
  /// persistently failing primary becomes a latched engine error.
  struct Epoch {
    std::uint64_t version = 0;
    std::shared_ptr<const ml::Classifier> primary;
    std::shared_ptr<const ml::Classifier> fallback;
  };

  ModelHub() = default;

  /// Publish a new epoch; returns its version (1, 2, 3, ...). `primary`
  /// must be a trained binary classifier; `fallback`, when present, must
  /// be trained with the same class count. Throws PreconditionError
  /// otherwise — the current epoch is untouched on failure.
  std::uint64_t publish(std::shared_ptr<const ml::Classifier> primary,
                        std::shared_ptr<const ml::Classifier> fallback = {});

  /// Publish models owned elsewhere (the engine's legacy "const
  /// Classifier&" constructor). The caller guarantees the models outlive
  /// every consumer of this epoch.
  std::uint64_t publish_unowned(const ml::Classifier& primary,
                                const ml::Classifier* fallback = nullptr);

  /// Hot-swap from a serialized deployment bundle (core::save_bundle
  /// output; v2 bundles carry the fallback). A corrupt bundle is the
  /// failure this API is for: the error comes back as a value and the
  /// previous epoch KEEPS SERVING — a bad push can never take the
  /// monitor down. Returns the new version on success.
  Result<std::uint64_t> publish_from_stream(std::istream& in);

  /// The live epoch (null until the first publish). The returned pointer
  /// pins the epoch: models stay valid for as long as the caller holds it.
  std::shared_ptr<const Epoch> current() const;

  /// Version of the live epoch (0 until the first publish).
  std::uint64_t version() const;

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const Epoch> current_;
  std::uint64_t next_version_ = 1;
};

// ---------------------------------------------------------------------------
// EngineSnapshot — checkpoint/restore
// ---------------------------------------------------------------------------

/// Persisted state of one stream: identity, accounting, the batch
/// high-water mark (most windows in one batch — capacity-planning data,
/// not restored into behavior) and the full detector state machine.
struct StreamSnapshot {
  std::uint64_t id = 0;
  std::uint64_t accepted = 0;    ///< windows ingested (incl. later-dropped)
  std::uint64_t evicted = 0;     ///< windows dropped under kDropOldest
  std::uint64_t high_water = 0;  ///< most windows in one gathered batch
  core::OnlineDetector::State detector;
};

/// Drift-detector state of one shard (serve/drift.hpp): the Page–Hinkley
/// and KS baselines plus the cooldown/hysteresis counters, so a restored
/// engine continues drift detection from the checkpointed baseline rather
/// than re-warming (and possibly re-tripping) on restart.
struct DriftShardSnapshot {
  std::size_t shard = 0;
  ShardDriftDetector::State state;
};

/// Identity of the scoring policy that produced a checkpoint
/// (serve/ensemble_policy.hpp). The stochastic policy's selection
/// sequence is a pure function of (seed, stream, window ordinal) and the
/// ordinals are already restored through each stream's detector state, so
/// nothing mutable needs persisting — but restoring a snapshot into an
/// engine with a DIFFERENT policy would silently change the verdict
/// stream. This section pins kind/seed/member count so such a restore
/// fails loudly instead.
struct PolicySnapshot {
  bool present = false;  ///< engine ran a non-single scoring policy
  std::string kind;      ///< to_string(EnsembleConfig::Kind)
  std::uint64_t seed = 0;
  std::uint64_t members = 0;  ///< total ensemble size
};

/// Serving precision tier that produced a checkpoint
/// (ServeConfig::Tier). A checkpointed verdict stream is only continued
/// correctly by scoring the remaining traffic the same way it was scored
/// before the cut — restoring a float-tier snapshot into a q16 or fpga
/// engine (or vice versa) would silently change every score after the
/// restore point. This section pins the tier name so such a restore fails
/// loudly instead. Absent from snapshots written before the tier layer
/// existed (which all served float).
struct TierSnapshot {
  bool present = false;
  std::string name;  ///< serve::to_string(ServeConfig::Tier)
};

/// A whole-engine checkpoint. Write with checkpoint(); feed back through
/// ServeConfig::restore_from to continue bit-identically. The format is a
/// line-oriented text artifact ("hmd-snapshot v1") — small (streams are
/// dozens, not millions) and diffable in test failures.
struct EngineSnapshot {
  std::uint64_t model_version = 0;  ///< hub epoch at snapshot time
  std::vector<StreamSnapshot> streams;
  /// Per-shard drift state — an OPTIONAL trailing section: empty when the
  /// engine ran without DriftConfig::enabled, and absent from (still
  /// readable) snapshots written before the drift layer existed.
  std::vector<DriftShardSnapshot> drift;
  /// Scoring-policy identity — an OPTIONAL trailing section after drift,
  /// written only by engines running a non-single policy.
  PolicySnapshot policy;
  /// Serving-tier identity — an OPTIONAL trailing section after policy,
  /// written by every tier-aware engine (including float).
  TierSnapshot tier;

  void write(std::ostream& out) const;

  /// Parse a snapshot; malformed input yields ErrCode::kParse with a
  /// "reading engine snapshot" context frame.
  static Result<EngineSnapshot> read(std::istream& in);

  /// Convenience over read(): thin throwing wrapper (raises ParseError).
  static EngineSnapshot read_or_throw(std::istream& in);
};

// ---------------------------------------------------------------------------
// FaultInjector — deterministic fault injection
// ---------------------------------------------------------------------------

/// Thrown by FaultInjector for an injected scoring failure. A distinct
/// type so tests can tell injected faults from real bugs.
class InjectedFault : public Error {
 public:
  explicit InjectedFault(const std::string& what) : Error(what) {}
};

/// What to inject, decided per (shard, batch ordinal, attempt) from
/// `seed` — rerunning the same plan against the same traffic replays the
/// same faults. Two fault classes live elsewhere by construction:
/// ring-full bursts are produced by a small ring_capacity under bursty
/// ingest, and corrupt-bundle loads by handing publish_from_stream bad
/// bytes (both exercised in the fault soak test).
struct FaultPlan {
  std::uint64_t seed = 0;
  /// Probability a batch is faulted (its scoring attempts throw).
  double score_throw_rate = 0.0;
  /// Attempts that throw for a faulted batch before it succeeds. Keep
  /// <= ResilienceConfig retries and retries mask every fault — the
  /// contract the soak test pins (verdicts identical to a fault-free run).
  std::size_t throw_burst = 1;
  /// Probability a batch's first attempt is delayed by slow_batch_us
  /// (exercises the latency-budget degradation path).
  double slow_batch_rate = 0.0;
  std::uint64_t slow_batch_us = 0;
  /// Every shard's first N batches throw on every attempt — forces
  /// retry exhaustion and degraded mode deterministically.
  std::size_t fail_first_batches = 0;

  /// kPrecondition error naming the offending field, or success.
  Result<void> try_validate() const;
  /// Throwing wrapper over try_validate() (raises PreconditionError).
  void validate() const { try_validate().value(); }
};

/// The injection hook the shard workers call before every scoring
/// attempt. Stateless between calls except for the injected counters;
/// all decisions derive from the plan's seed.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }

  /// Called at the top of scoring attempt `attempt` (0-based) of batch
  /// `ordinal` (0-based, per shard) on shard `shard`. Sleeps for the
  /// plan's slow-batch delay and/or throws InjectedFault, per the plan.
  void on_score_attempt(std::size_t shard, std::uint64_t ordinal,
                        std::size_t attempt);

  /// Pure decision functions (no side effects) — used by tests to
  /// predict the injected schedule.
  bool batch_throws(std::size_t shard, std::uint64_t ordinal) const;
  bool batch_is_slow(std::size_t shard, std::uint64_t ordinal) const;

  std::uint64_t throws_injected() const {
    return throws_injected_.load(std::memory_order_relaxed);
  }
  std::uint64_t delays_injected() const {
    return delays_injected_.load(std::memory_order_relaxed);
  }

 private:
  FaultPlan plan_;
  std::atomic<std::uint64_t> throws_injected_{0};
  std::atomic<std::uint64_t> delays_injected_{0};
};

// ---------------------------------------------------------------------------
// ResilienceConfig — degradation policy
// ---------------------------------------------------------------------------

/// Per-engine resilience policy (embedded in ServeConfig). The failure
/// ladder for a scoring batch:
///   1. retry the primary up to max_retries more times, backing off
///      retry_backoff_us * attempt between tries;
///   2. after `degrade_after` consecutive batches exhaust their retries
///      (or `budget_strikes` consecutive batches blow latency_budget_us),
///      the shard degrades: batches score on the epoch's fallback model;
///   3. every probe_every-th degraded batch probes the primary; one
///      success recovers the shard.
/// With no fallback in the epoch, step 2 latches the engine error
/// instead (the pre-resilience behavior).
struct ResilienceConfig {
  std::size_t max_retries = 2;        ///< extra attempts after the first
  std::uint64_t retry_backoff_us = 50;  ///< base backoff between attempts
  std::size_t degrade_after = 3;      ///< consecutive failed batches
  std::size_t probe_every = 8;        ///< degraded-batch probe cadence
  std::uint64_t latency_budget_us = 0;  ///< 0 = no budget
  std::size_t budget_strikes = 4;     ///< consecutive over-budget batches
  /// Test hook; null in production.
  std::shared_ptr<FaultInjector> faults;

  /// kPrecondition error naming the offending field (an attached fault
  /// plan is cascaded with a "ResilienceConfig" context frame).
  Result<void> try_validate() const;
  /// Throwing wrapper over try_validate() (raises PreconditionError).
  void validate() const { try_validate().value(); }
};

}  // namespace hmd::serve
