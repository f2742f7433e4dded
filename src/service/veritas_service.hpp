// The Veritas query service: many models, many queries, one process.
//
// The inference engine answers one session against one configuration;
// an operator runs Veritas over a fleet, where sessions from different
// deployments (per-ABR, per-CDN, per-network-tier) need different model
// configurations and the same trace is queried repeatedly (a what-if
// sweep re-abducts the identical log for every candidate setting). The
// service adds the serving layer for that workload:
//
//  * a registry of named *shards* — each shard owns one immutable
//    InferenceEngine built from its own VeritasConfig. Shards can be
//    added, removed and hot-swapped (retrain/replace) while queries are
//    in flight: a submitted query pins the engine it resolved, so a
//    swap never perturbs running work.
//  * an async submission front-end: submit() returns a
//    std::future<Expected<InferenceResult>> and enqueues the job on a
//    *bounded* FIFO queue (a full queue blocks the submitter:
//    backpressure; try_submit never waits). Worker lanes drain the
//    queue through util::ThreadPool, each lane reusing one
//    Ehmm::Scratch arena across jobs, so steady-state serving allocates
//    only results.
//  * a sharded LRU result cache keyed by (session-log content hash,
//    shard name, shard epoch, query kind, sampling seed). Every
//    add/swap assigns the shard a fresh epoch from a service-global
//    counter, so entries for a replaced model can never be served again
//    — cache coherence by construction. Hits complete the future
//    immediately without touching the queue.
//
// Failure semantics (see docs/ARCHITECTURE.md "Failure semantics"):
// every future the service hands out resolves with a definite
// Expected<InferenceResult> — a payload, or a Status naming the terminal
// outcome (rejected / not_found / internal). Exceptions inside a job are
// converted to Status at the lane boundary: a poisoned query can never
// take down or stall a lane. Deterministic failpoints
// (util/failpoint.hpp) are wired into the queue, the lanes, the cache
// fill and shard swap so all of this is testable on demand
// (tests/service/chaos_test.cpp).
//
// Determinism: a query's payload is bit-identical to calling the direct
// single-threaded path (InferenceEngine::infer /
// Veritas::predict_sequence) on an engine with the same configuration —
// for any lane count, queue capacity, submission order, and whether the
// answer came from the cache or a fresh computation.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/veritas.hpp"
#include "sim/session_log.hpp"
#include "util/bounded_queue.hpp"
#include "util/latency_histogram.hpp"
#include "util/lru_cache.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

namespace veritas::util {
class MetricsRegistry;
}  // namespace veritas::util

namespace veritas::service {

/// What the caller wants computed for a session.
enum class QueryKind {
  kAbduction,        ///< full posterior: MAP trace + K samples + marginals
  kPredictSequence,  ///< per-chunk interventional next-chunk predictions
};

/// One unit of work for the service.
struct Query {
  sim::SessionLog log;
  std::string shard;
  QueryKind kind = QueryKind::kAbduction;
  /// Overrides the shard config's posterior-sampling seed (kAbduction
  /// only; prediction queries are seed-independent and ignore it).
  /// Part of the cache key.
  std::optional<std::uint64_t> seed;
  /// XORed onto the resolved seed (kAbduction only) — the per-session
  /// perturbation pattern (`config seed ^ session seed`). Resolved
  /// against the shard pinned at submit time, so it composes correctly
  /// with concurrent shard swaps, unlike reading the config seed
  /// yourself before submitting.
  std::optional<std::uint64_t> seed_xor;
};

/// A completed query. Payloads are immutable and shared with the result
/// cache, so copying an InferenceResult is two refcount bumps.
struct InferenceResult {
  /// Set for QueryKind::kAbduction.
  std::shared_ptr<const core::VeritasResult> abduction;
  /// Set for QueryKind::kPredictSequence.
  std::shared_ptr<const std::vector<core::NextChunkPrediction>> predictions;
  bool cache_hit = false;
  std::uint64_t shard_epoch = 0;  ///< epoch of the engine that answered
};

struct ServiceOptions {
  /// Worker lanes draining the queue (0 = hardware thread count). Each
  /// lane owns one scratch arena reused across jobs.
  std::size_t num_threads = 0;
  /// Submission queue bound; a full queue blocks submit().
  std::size_t queue_capacity = 256;
  /// Result-cache entries across all cache shards; 0 disables caching.
  std::size_t cache_capacity = 1024;
  /// Independently locked cache shards.
  std::size_t cache_shards = 8;
};

/// Everything the service counts per future. Counters, snapshots,
/// reconciled(), metric families and the `serve` printout all loop over
/// kOutcomeTable, so adding an outcome is one enum value plus one row.
enum class Outcome : std::uint8_t {
  kSubmitted, kComputed, kCacheHit, kCacheMiss, kRejected, kFailed,
};

/// Snapshot of the monotonic outcome counters. Every future handed out
/// lands in exactly one terminal bucket, so at quiescence they reconcile.
struct OutcomeCounts {
  std::uint64_t submitted = 0;   ///< futures handed out (all outcomes)
  std::uint64_t computed = 0;    ///< ran inference
  std::uint64_t cache_hits = 0;  ///< answered from cache
  std::uint64_t cache_misses = 0;  ///< accepted into the queue, not a hit
  std::uint64_t rejected = 0;    ///< admission refused (failpoint, shutdown)
  std::uint64_t failed = 0;      ///< unknown shard or internal error

  /// Sum of the terminal buckets.
  std::uint64_t terminal_total() const noexcept;
  /// The outcome-breakdown invariant; holds exactly at quiescence (no
  /// submission or execution racing the snapshot).
  bool reconciled() const noexcept { return submitted == terminal_total(); }
};

/// One kOutcomeTable row.
struct OutcomeRow {
  Outcome outcome;
  const char* name;  ///< the OutcomeCounts field's name, as printed
  std::uint64_t OutcomeCounts::* field;
  /// `outcome` label in veritas_(shard_)queries_total; nullptr = none.
  const char* metric_label;
  bool terminal;  ///< each future lands in exactly one terminal outcome
};

#define VERITAS_OUTCOME_ROW(outcome, field, label, terminal) \
  OutcomeRow{Outcome::outcome, #field, &OutcomeCounts::field, label, terminal}
/// The single source of the service's books, in Outcome order (which is
/// also the metric sample order and the printout order).
inline constexpr std::array kOutcomeTable{
    VERITAS_OUTCOME_ROW(kSubmitted, submitted, nullptr, false),
    VERITAS_OUTCOME_ROW(kComputed, computed, "computed", true),
    VERITAS_OUTCOME_ROW(kCacheHit, cache_hits, "cache_hit", true),
    VERITAS_OUTCOME_ROW(kCacheMiss, cache_misses, nullptr, false),
    VERITAS_OUTCOME_ROW(kRejected, rejected, "rejected", true),
    VERITAS_OUTCOME_ROW(kFailed, failed, "failed", true),
};
#undef VERITAS_OUTCOME_ROW
inline constexpr std::size_t kNumOutcomes = kOutcomeTable.size();

static_assert([] {
  for (std::size_t i = 0; i < kNumOutcomes; ++i) {
    if (kOutcomeTable[i].outcome != static_cast<Outcome>(i)) return false;
  }
  return true;
}(), "kOutcomeTable rows must follow Outcome order");

inline std::uint64_t OutcomeCounts::terminal_total() const noexcept {
  std::uint64_t total = 0;
  for (const OutcomeRow& row : kOutcomeTable) {
    if (row.terminal) total += this->*row.field;
  }
  return total;
}

/// Point-in-time service counters. The queue depth is instantaneous;
/// the rest are monotonic over the service lifetime.
struct ServiceStats : OutcomeCounts {
  std::uint64_t cache_evictions = 0;
  std::size_t cache_entries = 0;
  std::size_t queue_depth = 0;   ///< jobs pending in the queue
};

/// Per-shard slice of the service counters. Counters follow the shard
/// *name*: they persist across swap_shard (a hot-swapped model keeps its
/// traffic history) and reset only when the shard is removed and
/// re-added. A query that was accepted but not yet executed has been
/// counted in submitted (and misses) but not yet in a terminal bucket.
struct ShardStats : OutcomeCounts {
  std::string name;
  std::uint64_t epoch = 0;          ///< epoch of the current engine
  std::uint64_t in_flight = 0;      ///< lanes executing this shard now
  /// Compute-latency percentiles over this shard's *computed* queries
  /// (cache hits complete in the submitter and are not timed), read from
  /// a lock-free power-of-two-bucket histogram — each value is the upper
  /// bound of its bucket (~2x resolution), 0 until the first computed
  /// query. Like the counters, they follow the shard name across hot
  /// swaps and reset on remove + re-add.
  std::uint64_t latency_count = 0;  ///< samples behind the percentiles
  double latency_p50_us = 0.0;
  double latency_p95_us = 0.0;
  double latency_p99_us = 0.0;
};

class VeritasService {
 public:
  explicit VeritasService(ServiceOptions options = {});

  /// Drains and completes every accepted query, then joins the lanes.
  /// Every future ever handed out resolves with a definite
  /// Expected<InferenceResult> — never a broken promise.
  ~VeritasService();

  VeritasService(const VeritasService&) = delete;
  VeritasService& operator=(const VeritasService&) = delete;

  // ------------------------------------------------------------ registry

  /// Registers a shard under `name`, building its engine from `config`.
  /// Replaces any existing shard of that name (same as swap_shard).
  /// Returns the shard's epoch — unique across all add/swap calls on
  /// this service. Engine construction happens outside the registry
  /// lock, so serving is not stalled by a build.
  std::uint64_t add_shard(const std::string& name,
                          const core::VeritasConfig& config);

  /// Registers a shard around an engine built elsewhere (non-null).
  std::uint64_t add_shard(const std::string& name,
                          std::shared_ptr<const core::InferenceEngine> engine);

  /// Atomically replaces `name`'s engine and bumps its epoch, so cached
  /// results for the old model can no longer be served. In-flight queries
  /// keep the engine they resolved at submit time. Requires the shard
  /// to exist.
  std::uint64_t swap_shard(const std::string& name,
                           const core::VeritasConfig& config);

  /// Unregisters `name`; in-flight queries finish on the old engine.
  /// Returns false when no such shard exists.
  bool remove_shard(const std::string& name);

  bool has_shard(const std::string& name) const;
  std::vector<std::string> shard_names() const;

  /// Current epoch of `name`; requires the shard to exist.
  std::uint64_t shard_epoch(const std::string& name) const;

  /// Borrow the shard's current engine (e.g. for its config); requires
  /// the shard to exist.
  std::shared_ptr<const core::InferenceEngine> shard_engine(
      const std::string& name) const;

  // ---------------------------------------------------------- submission

  /// Submits one query. The returned future ALWAYS resolves with a
  /// definite Expected<InferenceResult>: a payload, or a Status —
  /// kNotFound (unknown shard), kRejected (an injected admission fault,
  /// or shutting down), or kInternal (inference raised; converted at
  /// the lane boundary). Cache hits complete before submit() returns.
  /// Blocks while the queue is full (backpressure).
  std::future<Expected<InferenceResult>> submit(Query query);

  /// Non-blocking submit: nullopt when the queue is full (nothing is
  /// counted — a rejected probe leaves no trace). Cache hits and
  /// immediately-resolvable outcomes (unknown shard) still return a
  /// future.
  std::optional<std::future<Expected<InferenceResult>>> try_submit(
      Query query);

  /// Submits every log against `shard`; futures are positionally
  /// aligned with `logs`. Blocks as the queue admits work, so the batch
  /// may be arbitrarily larger than the queue bound.
  std::vector<std::future<Expected<InferenceResult>>> submit_batch(
      std::span<const sim::SessionLog> logs, const std::string& shard,
      QueryKind kind = QueryKind::kAbduction);

  ServiceStats stats() const;

  /// Per-shard counter snapshot, sorted by shard name.
  std::vector<ShardStats> shard_stats() const;

  /// Registers this service's whole metric inventory — outcome counters,
  /// queue-depth and reconciliation-drift gauges, per-shard
  /// counters/in-flight/epoch with a `shard` label, compute-latency
  /// histograms, per-shard estimator-cache counters, and
  /// a `veritas_build_info` info gauge carrying the resolved kernel tier
  /// — into `registry` as pull callbacks (see docs/OBSERVABILITY.md for
  /// the inventory). The callbacks capture `this`: the registry must not
  /// outlive the service, and a scrape only reads the same relaxed
  /// atomics stats()/shard_stats() read, so registration adds zero cost
  /// to the serving path.
  void register_metrics(util::MetricsRegistry& registry) const;

  std::size_t num_lanes() const noexcept { return lanes_; }

 private:
  /// One atomic per Outcome, mirrored at service and shard level.
  /// Relaxed: counters only, no ordering.
  using OutcomeCounters = std::array<std::atomic<std::uint64_t>, kNumOutcomes>;

  /// Lock-free per-shard counters, shared between the registry entry and
  /// every in-flight job that resolved the shard (so a concurrent
  /// remove_shard can never invalidate a worker's counter).
  struct ShardCounters {
    OutcomeCounters outcomes{};
    util::LatencyHistogram latency;  ///< computed-query wall time
    std::atomic<std::uint64_t> in_flight{0};  ///< lanes executing now
  };

  struct Shard {
    std::shared_ptr<const core::Veritas> veritas;  ///< facade over engine
    std::uint64_t epoch = 0;
    std::shared_ptr<ShardCounters> counters;
  };

  /// Four integers: the epoch alone identifies the (shard, model) pair
  /// because every add/swap draws a service-unique epoch — no need to
  /// carry the shard name.
  struct CacheKey {
    std::uint64_t log_hash = 0;
    std::uint64_t epoch = 0;
    QueryKind kind = QueryKind::kAbduction;
    std::uint64_t seed = 0;
    bool operator==(const CacheKey&) const = default;
  };
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey& key) const noexcept;
  };

  /// What the cache stores: the immutable payload of one query.
  struct CachedPayload {
    std::shared_ptr<const core::VeritasResult> abduction;
    std::shared_ptr<const std::vector<core::NextChunkPrediction>> predictions;
  };

  struct Job {
    Shard shard;  ///< pinned at submit time; veritas null = unknown shard
    Query query;
    CacheKey key;
    /// Nonzero only while tracing is enabled: the query's span id, set
    /// at make_job and carried into every span the lane records.
    std::uint64_t trace_id = 0;
    /// Stamped just before the queue push when trace_id != 0; the lane
    /// turns it into a service.queue_wait span at dequeue.
    std::chrono::steady_clock::time_point enqueue_time{};
    /// Exactly-once promise guard: all resolution funnels through the
    /// finish_/fulfill_ helpers, which flip this.
    bool done = false;
    std::promise<Expected<InferenceResult>> promise;
  };

  /// Resolves the query's shard (null veritas when unknown) and computes
  /// its cache key; the promise is default-constructed and unfulfilled.
  Job make_job(Query query) const;

  /// Probes the cache; on a hit fulfills the promise and returns true.
  bool serve_from_cache(Job& job);

  /// Resolves the job's future with a non-ok status and lands it in the
  /// matching outcome (service + shard). No-op when already done.
  void finish_with_status(Job& job, Status status);

  /// The shared front half of submit/try_submit: counts the submission
  /// and resolves everything that never reaches the queue (unknown
  /// shard, cache hit, injected admission fault). Returns true when the
  /// future is already resolved.
  bool admit_or_resolve(Job& job);

  /// Bumps `outcome` in the totals and in the shard's slice when known
  /// (a job accepted by the queue has moved away, hence no Job&).
  void count(const std::shared_ptr<ShardCounters>& shard, Outcome outcome);

  /// Relaxed snapshot of one set of outcome atomics.
  static OutcomeCounts snapshot(const OutcomeCounters& counters);

  void drain_lane();

  /// Runs the job's inference and lands it in the computed (or, via the
  /// catch-all boundary, failed-bucket-to-be) books. Returns the
  /// outcome WITHOUT touching the promise: the lane resolves it after
  /// dropping the in_flight gauge, so a caller whose future is ready
  /// never observes its own job still counted as executing.
  Expected<InferenceResult> execute(Job& job,
                                    core::Ehmm::Scratch& scratch) noexcept;

  ServiceOptions options_;
  std::size_t lanes_ = 0;

  mutable std::mutex registry_mutex_;
  std::unordered_map<std::string, Shard> shards_;
  std::uint64_t next_epoch_ = 0;

  util::ShardedLruCache<CacheKey, CachedPayload, CacheKeyHash> cache_;
  util::BoundedQueue<Job> queue_;

  OutcomeCounters totals_{};
  /// Service-wide compute latency.
  util::LatencyHistogram latency_;
  /// Trace-id source (ids start at 1; 0 means untraced).
  mutable std::atomic<std::uint64_t> next_trace_id_{0};

  util::ThreadPool pool_;  ///< last member: joins before the rest die
};

}  // namespace veritas::service
