#include "service/veritas_service.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "math/simd_kernels.hpp"
#include "util/expects.hpp"
#include "util/failpoint.hpp"
#include "util/hash.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace veritas::service {

namespace {
using Clock = std::chrono::steady_clock;

/// One terminal outcome per non-ok code — the reconciliation
/// invariant's other half.
Outcome outcome_of(StatusCode code) {
  switch (code) {
    case StatusCode::kRejected: return Outcome::kRejected;
    case StatusCode::kNotFound:
    case StatusCode::kInternal:
    case StatusCode::kOk:  // unreachable: Expected rejects ok statuses
      break;
  }
  return Outcome::kFailed;
}
}  // namespace

std::size_t VeritasService::CacheKeyHash::operator()(
    const CacheKey& key) const noexcept {
  return static_cast<std::size_t>(util::Fnv1aHasher{}
                                      .u64(key.log_hash)
                                      .u64(key.epoch)
                                      .u64(static_cast<std::uint64_t>(key.kind))
                                      .u64(key.seed)
                                      .digest());
}

VeritasService::VeritasService(ServiceOptions options)
    : options_(options),
      lanes_(options.num_threads == 0 ? util::ThreadPool::hardware_threads()
                                      : options.num_threads),
      cache_(std::max<std::size_t>(1, options.cache_capacity),
             std::max<std::size_t>(1, options.cache_shards)),
      queue_(std::max<std::size_t>(1, options.queue_capacity)),
      pool_(lanes_) {
  // Long-running drain jobs, one per lane; each owns a scratch arena
  // reused across every job it executes.
  for (std::size_t i = 0; i < lanes_; ++i) {
    pool_.submit([this] { drain_lane(); });
  }
}

VeritasService::~VeritasService() {
  // Closing the queue stops new submissions and wakes blocked lanes;
  // they compute the remaining accepted jobs, so every future ever
  // handed out resolves before the pool joins. drain_lane never
  // lets an exception reach the pool, so wait_idle() cannot rethrow
  // from the destructor.
  queue_.close();
  pool_.wait_idle();
}

// --------------------------------------------------------------- registry

std::uint64_t VeritasService::add_shard(const std::string& name,
                                        const core::VeritasConfig& config) {
  // Build outside the lock: engine construction sets up the state
  // space, emission model and span table (A^Δ entries are built on
  // first use), which is not free at large k.
  return add_shard(name,
                   std::make_shared<const core::InferenceEngine>(config));
}

std::uint64_t VeritasService::add_shard(
    const std::string& name,
    std::shared_ptr<const core::InferenceEngine> engine) {
  VERITAS_EXPECTS(engine != nullptr);
  auto veritas = std::make_shared<const core::Veritas>(std::move(engine));
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  Shard& shard = shards_[name];
  shard.veritas = std::move(veritas);
  // Counters follow the name: a replaced shard keeps its history, a
  // fresh name starts at zero.
  if (shard.counters == nullptr) {
    shard.counters = std::make_shared<ShardCounters>();
  }
  // Epochs are unique across every add/swap on this service, so a
  // removed-and-re-added shard can never resurrect stale cache entries.
  shard.epoch = next_epoch_++;
  return shard.epoch;
}

std::uint64_t VeritasService::swap_shard(const std::string& name,
                                         const core::VeritasConfig& config) {
  // Build first (slow), then replace under one lock hold: a concurrent
  // remove_shard can never interleave and be silently undone.
  auto veritas = std::make_shared<const core::Veritas>(
      std::make_shared<const core::InferenceEngine>(config));
  // Injected between build and publish: a failed swap must leave the
  // shard serving the old engine at the old epoch.
  if (VERITAS_FAILPOINT("service.shard.swap")) {
    throw util::FailpointTriggered("service.shard.swap");
  }
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  const auto it = shards_.find(name);
  VERITAS_EXPECTS(it != shards_.end());
  it->second.veritas = std::move(veritas);
  it->second.epoch = next_epoch_++;
  return it->second.epoch;
}

bool VeritasService::remove_shard(const std::string& name) {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  return shards_.erase(name) > 0;
}

bool VeritasService::has_shard(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  return shards_.find(name) != shards_.end();
}

std::vector<std::string> VeritasService::shard_names() const {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  std::vector<std::string> names;
  names.reserve(shards_.size());
  for (const auto& [name, shard] : shards_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

std::uint64_t VeritasService::shard_epoch(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  const auto it = shards_.find(name);
  VERITAS_EXPECTS(it != shards_.end());
  return it->second.epoch;
}

std::shared_ptr<const core::InferenceEngine> VeritasService::shard_engine(
    const std::string& name) const {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  const auto it = shards_.find(name);
  VERITAS_EXPECTS(it != shards_.end());
  return it->second.veritas->engine_ptr();
}

// ------------------------------------------------------------- submission

VeritasService::Job VeritasService::make_job(Query query) const {
  Job job;
  // Trace ids are drawn only while tracing is live, so the disabled
  // path never touches the counter (and trace_id 0 = untraced keeps
  // every downstream check a plain integer compare).
  if (util::Tracer::enabled()) {
    job.trace_id = next_trace_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  {
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    const auto it = shards_.find(query.shard);
    if (it != shards_.end()) {
      job.shard = it->second;  // pin engine + epoch for this query
    }
    // Unknown shard: job.shard.veritas stays null; the caller resolves
    // the future with kNotFound instead of throwing — an operator typo
    // in one query must not unwind a batch submitter.
  }
  if (job.shard.veritas != nullptr) {
    job.key.log_hash = util::hash_session_log(query.log);
    job.key.epoch = job.shard.epoch;
    job.key.kind = query.kind;
    // Seed resolution against the *pinned* shard, so a concurrent swap
    // cannot pair one shard's seed with another's engine. Prediction
    // queries are seed-independent: normalize so seed-bearing duplicates
    // share one cache entry.
    if (query.kind == QueryKind::kAbduction) {
      const std::uint64_t base = job.shard.veritas->config().seed;
      job.key.seed = query.seed.value_or(base) ^ query.seed_xor.value_or(0);
    } else {
      job.key.seed = 0;
    }
  }
  job.query = std::move(query);
  return job;
}

bool VeritasService::serve_from_cache(Job& job) {
  if (options_.cache_capacity == 0) return false;
  VERITAS_TRACE_SPAN("service.cache_probe", "service");
  // peek: the miss is counted only once the query is really accepted.
  std::optional<CachedPayload> payload = cache_.peek(job.key);
  if (!payload) return false;
  count(job.shard.counters, Outcome::kCacheHit);
  InferenceResult result;
  result.abduction = std::move(payload->abduction);
  result.predictions = std::move(payload->predictions);
  result.cache_hit = true;
  result.shard_epoch = job.key.epoch;
  job.done = true;
  job.promise.set_value(Expected<InferenceResult>(std::move(result)));
  return true;
}

void VeritasService::finish_with_status(Job& job, Status status) {
  if (job.done) return;
  job.done = true;
  count(job.shard.counters, outcome_of(status.code()));
  job.promise.set_value(Expected<InferenceResult>(std::move(status)));
}

void VeritasService::count(const std::shared_ptr<ShardCounters>& shard,
                           Outcome outcome) {
  const auto i = static_cast<std::size_t>(outcome);
  totals_[i].fetch_add(1, std::memory_order_relaxed);
  if (shard != nullptr) {
    shard->outcomes[i].fetch_add(1, std::memory_order_relaxed);
  }
}

OutcomeCounts VeritasService::snapshot(const OutcomeCounters& counters) {
  OutcomeCounts out;
  for (std::size_t i = 0; i < kNumOutcomes; ++i) {
    out.*kOutcomeTable[i].field = counters[i].load(std::memory_order_relaxed);
  }
  return out;
}

bool VeritasService::admit_or_resolve(Job& job) {
  const util::ScopedQueryId scoped_query(job.trace_id);
  VERITAS_TRACE_SPAN("service.admit", "service");
  if (job.shard.veritas == nullptr) {
    count(job.shard.counters, Outcome::kSubmitted);
    finish_with_status(job,
                       Status::not_found("unknown shard: " + job.query.shard));
    return true;
  }
  if (serve_from_cache(job)) {
    count(job.shard.counters, Outcome::kSubmitted);
    return true;
  }
  if (VERITAS_FAILPOINT("service.queue.push")) {
    count(job.shard.counters, Outcome::kSubmitted);
    finish_with_status(job, Status::rejected("failpoint: service.queue.push"));
    return true;
  }
  return false;
}

std::future<Expected<InferenceResult>> VeritasService::submit(Query query) {
  Job job = make_job(std::move(query));
  std::future<Expected<InferenceResult>> future = job.promise.get_future();
  if (admit_or_resolve(job)) return future;

  // From here the future is handed out no matter what the queue says —
  // a failed push (the service is shutting down) resolves it with a
  // status instead of throwing. The push blocks while the queue is full.
  count(job.shard.counters, Outcome::kSubmitted);
  if (job.trace_id != 0) job.enqueue_time = Clock::now();
  const std::shared_ptr<ShardCounters> counters = job.shard.counters;
  if (queue_.push(std::move(job))) {
    if (options_.cache_capacity > 0) count(counters, Outcome::kCacheMiss);
  } else {
    finish_with_status(job,
                       Status::rejected("VeritasService is shutting down"));
  }
  return future;
}

std::optional<std::future<Expected<InferenceResult>>> VeritasService::try_submit(
    Query query) {
  Job job = make_job(std::move(query));
  std::future<Expected<InferenceResult>> future = job.promise.get_future();
  if (admit_or_resolve(job)) return future;
  const std::shared_ptr<ShardCounters> counters = job.shard.counters;
  if (job.trace_id != 0) job.enqueue_time = Clock::now();
  if (!queue_.try_push(std::move(job))) {
    // Full or closing: nothing was counted — a rejected probe leaves no
    // trace, and the caller still owns retry policy.
    return std::nullopt;
  }
  count(counters, Outcome::kSubmitted);
  if (options_.cache_capacity > 0) count(counters, Outcome::kCacheMiss);
  return future;
}

std::vector<std::future<Expected<InferenceResult>>>
VeritasService::submit_batch(std::span<const sim::SessionLog> logs,
                             const std::string& shard, QueryKind kind) {
  std::vector<std::future<Expected<InferenceResult>>> futures;
  futures.reserve(logs.size());
  for (const sim::SessionLog& log : logs) {
    Query query;
    query.log = log;
    query.shard = shard;
    query.kind = kind;
    futures.push_back(submit(std::move(query)));
  }
  return futures;
}

std::vector<ShardStats> VeritasService::shard_stats() const {
  std::vector<ShardStats> out;
  {
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    out.reserve(shards_.size());
    for (const auto& [name, shard] : shards_) {
      ShardStats s;
      static_cast<OutcomeCounts&>(s) = snapshot(shard.counters->outcomes);
      s.name = name;
      s.epoch = shard.epoch;
      s.in_flight =
          shard.counters->in_flight.load(std::memory_order_relaxed);
      const util::LatencyHistogram::Snapshot latency =
          shard.counters->latency.snapshot();
      s.latency_count = latency.total;
      s.latency_p50_us = latency.percentile_us(0.50);
      s.latency_p95_us = latency.percentile_us(0.95);
      s.latency_p99_us = latency.percentile_us(0.99);
      out.push_back(std::move(s));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ShardStats& a, const ShardStats& b) {
              return a.name < b.name;
            });
  return out;
}

ServiceStats VeritasService::stats() const {
  const auto cache = cache_.stats();
  ServiceStats s;
  static_cast<OutcomeCounts&>(s) = snapshot(totals_);
  s.cache_evictions = cache.evictions;
  s.cache_entries = cache.entries;
  s.queue_depth = queue_.size();
  return s;
}

// ---------------------------------------------------------------- metrics

void VeritasService::register_metrics(util::MetricsRegistry& registry) const {
  using Registry = util::MetricsRegistry;
  using Sample = Registry::Sample;
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto total = [this, count](Outcome outcome) {
    return count(totals_[static_cast<std::size_t>(outcome)].load(
        std::memory_order_relaxed));
  };

  registry.add_counter(
      "veritas_queries_submitted_total", "Futures handed out, all outcomes.",
      {}, [total] { return total(Outcome::kSubmitted); });
  registry.add_counter(
      "veritas_queries_total",
      "Terminal query outcomes; at quiescence the sum equals "
      "veritas_queries_submitted_total.",
      [this, count] {
        const OutcomeCounts s = snapshot(totals_);
        std::vector<Sample> out;
        for (const OutcomeRow& row : kOutcomeTable) {
          if (row.metric_label == nullptr) continue;
          out.push_back(
              {{{"outcome", row.metric_label}}, count(s.*row.field)});
        }
        return out;
      });
  registry.add_counter(
      "veritas_result_cache_misses_total",
      "Queries accepted into the queue after missing the result cache.", {},
      [total] { return total(Outcome::kCacheMiss); });
  registry.add_counter("veritas_result_cache_evictions_total",
                       "Result-cache LRU evictions.", {}, [this, count] {
                         return count(cache_.stats().evictions);
                       });
  registry.add_gauge("veritas_result_cache_entries",
                     "Resident result-cache entries.", {}, [this, count] {
                       return count(cache_.stats().entries);
                     });
  registry.add_gauge("veritas_queue_depth", "Pending jobs in the queue.", {},
                     [this, count] { return count(queue_.size()); });
  // The reconciliation invariant as a scrapeable self-check: submitted
  // minus the terminal buckets. In-flight and queued work makes it
  // transiently positive; a nonzero value at quiescence means a query
  // was double-counted or lost (the chaos suite's book-keeping bug,
  // visible on a dashboard).
  std::string terminal_sum;
  for (const OutcomeRow& row : kOutcomeTable) {
    if (!row.terminal) continue;
    if (!terminal_sum.empty()) terminal_sum += " + ";
    terminal_sum += row.name;
  }
  registry.add_gauge(
      "veritas_unreconciled_queries",
      "submitted - (" + terminal_sum +
          "); transient in-flight work only, 0 at quiescence.",
      {}, [this] {
        const OutcomeCounts s = snapshot(totals_);
        return static_cast<double>(s.submitted) -
               static_cast<double>(s.terminal_total());
      });
  registry.add_histogram(
      "veritas_compute_latency_us",
      "Service-wide compute wall time per computed query, power-of-two "
      "microsecond buckets.",
      [this] {
        return std::vector<Registry::HistogramSample>{
            Registry::from_latency_snapshot(latency_.snapshot(), {})};
      });

  registry.add_counter(
      "veritas_shard_submitted_total", "Futures handed out, by shard.",
      [this, count] {
        std::vector<Sample> out;
        for (const ShardStats& s : shard_stats()) {
          out.push_back({{{"shard", s.name}}, count(s.submitted)});
        }
        return out;
      });
  registry.add_counter(
      "veritas_shard_queries_total", "Terminal query outcomes, by shard.",
      [this, count] {
        std::vector<Sample> out;
        for (const ShardStats& s : shard_stats()) {
          for (const OutcomeRow& row : kOutcomeTable) {
            if (row.metric_label == nullptr) continue;
            out.push_back({{{"shard", s.name}, {"outcome", row.metric_label}},
                           count(s.*row.field)});
          }
        }
        return out;
      });
  registry.add_gauge("veritas_shard_in_flight",
                     "Lanes currently executing each shard's queries.",
                     [this, count] {
                       std::vector<Sample> out;
                       for (const ShardStats& s : shard_stats()) {
                         out.push_back({{{"shard", s.name}},
                                        count(s.in_flight)});
                       }
                       return out;
                     });
  registry.add_gauge("veritas_shard_epoch",
                     "Epoch of each shard's current engine.", [this, count] {
                       std::vector<Sample> out;
                       for (const ShardStats& s : shard_stats()) {
                         out.push_back({{{"shard", s.name}}, count(s.epoch)});
                       }
                       return out;
                     });
  registry.add_histogram(
      "veritas_shard_compute_latency_us",
      "Per-shard compute wall time per computed query, power-of-two "
      "microsecond buckets.",
      [this] {
        std::vector<Registry::HistogramSample> out;
        const std::lock_guard<std::mutex> lock(registry_mutex_);
        for (const auto& [name, shard] : shards_) {
          out.push_back(Registry::from_latency_snapshot(
              shard.counters->latency.snapshot(), {{"shard", name}}));
        }
        std::sort(out.begin(), out.end(),
                  [](const Registry::HistogramSample& a,
                     const Registry::HistogramSample& b) {
                    return a.labels < b.labels;
                  });
        return out;
      });
  // Shared estimator-cache counters, per shard. The per-lane L1 front
  // caches live inside each lane's scratch and are deliberately not
  // aggregated here (no shared counters by design — see
  // core/estimator_cache.hpp).
  registry.add_counter(
      "veritas_estimator_cache_events_total",
      "Shared estimator-cache events (hit/miss/insert/flush), by shard.",
      [this, count] {
        std::vector<Sample> out;
        const std::lock_guard<std::mutex> lock(registry_mutex_);
        for (const auto& [name, shard] : shards_) {
          const auto& cache = shard.veritas->engine_ptr()->estimator_cache();
          if (cache == nullptr) continue;
          const core::EstimatorCache::Stats stats = cache->stats();
          const std::pair<const char*, std::uint64_t> events[] = {
              {"hit", stats.hits},
              {"miss", stats.misses},
              {"insert", stats.insertions},
              {"flush", stats.flushes},
          };
          for (const auto& [event, value] : events) {
            out.push_back(
                {{{"shard", name}, {"event", event}}, count(value)});
          }
        }
        std::sort(out.begin(), out.end(),
                  [](const Sample& a, const Sample& b) {
                    return a.labels < b.labels;
                  });
        return out;
      });
  registry.add_gauge(
      "veritas_estimator_cache_entries",
      "Resident shared estimator-cache entries, by shard.", [this, count] {
        std::vector<Sample> out;
        const std::lock_guard<std::mutex> lock(registry_mutex_);
        for (const auto& [name, shard] : shards_) {
          const auto& cache = shard.veritas->engine_ptr()->estimator_cache();
          if (cache == nullptr) continue;
          out.push_back({{{"shard", name}}, count(cache->stats().entries)});
        }
        std::sort(out.begin(), out.end(),
                  [](const Sample& a, const Sample& b) {
                    return a.labels < b.labels;
                  });
        return out;
      });
  registry.add_gauge(
      "veritas_build_info",
      "Constant 1; the labels carry the resolved kernel tier and which "
      "optional subsystems this binary compiled in.",
      [] {
#if defined(VERITAS_FAILPOINTS_DISABLED)
        const char* failpoints = "off";
#else
        const char* failpoints = "on";
#endif
        return std::vector<Sample>{
            {{{"kernels", math::simd_kernels::backend_name()},
              {"tracing", util::Tracer::kCompiledIn ? "on" : "off"},
              {"failpoints", failpoints}},
             1.0}};
      });
}

// ---------------------------------------------------------------- workers

void VeritasService::drain_lane() {
  core::Ehmm::Scratch scratch;
  for (;;) {
    std::optional<Job> job = queue_.pop();
    if (!job) return;  // closed and drained
    // Injected dequeue faults (slow consumer, a thrown probe) must
    // neither kill the lane nor leak the job just popped.
    try {
      VERITAS_FAILPOINT("service.queue.pop");
    } catch (const std::exception&) {
    }
    // The queue-wait span is recorded from the submit-side timestamp —
    // the one span that crosses threads, so it cannot be a scoped site.
    if (job->trace_id != 0 && util::Tracer::enabled()) {
      util::Tracer::record_span("service.queue_wait", "service",
                                job->enqueue_time, Clock::now(),
                                job->trace_id);
    }
    ShardCounters* counters = job->shard.counters.get();
    counters->in_flight.fetch_add(1, std::memory_order_relaxed);
    Expected<InferenceResult> outcome = [&] {
      const util::ScopedQueryId scoped_query(job->trace_id);
      // The root span: everything the lane does for this query,
      // including the result-cache fill inside execute().
      VERITAS_TRACE_QUERY_SPAN("service.execute", "service");
      return execute(*job, scratch);
    }();
    counters->in_flight.fetch_sub(1, std::memory_order_relaxed);
    // Resolve only after the gauge dropped: "my future is ready" must
    // imply this job is no longer counted as in flight.
    if (outcome.ok()) {
      job->done = true;
      job->promise.set_value(std::move(outcome));
    } else {
      finish_with_status(*job, outcome.status());
    }
  }
}

Expected<InferenceResult> VeritasService::execute(
    Job& job, core::Ehmm::Scratch& scratch) noexcept {
  try {
    if (VERITAS_FAILPOINT("service.lane.execute")) {
      throw util::FailpointTriggered("service.lane.execute");
    }
    const auto start = Clock::now();
    InferenceResult result;
    result.shard_epoch = job.shard.epoch;
    const core::Veritas& veritas = *job.shard.veritas;
    switch (job.query.kind) {
      case QueryKind::kAbduction:
        result.abduction = std::make_shared<const core::VeritasResult>(
            veritas.engine().infer_with_seed(job.query.log, scratch,
                                             job.key.seed));
        break;
      case QueryKind::kPredictSequence:
        result.predictions =
            std::make_shared<const std::vector<core::NextChunkPrediction>>(
                veritas.predict_sequence(job.query.log, scratch));
        break;
    }
    const auto elapsed = Clock::now() - start;
    const auto us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count());
    latency_.record_us(us);
    job.shard.counters->latency.record_us(us);
    count(job.shard.counters, Outcome::kComputed);
    if (options_.cache_capacity > 0) {
      try {
        if (!VERITAS_FAILPOINT("service.cache.fill")) {
          cache_.put(job.key,
                     CachedPayload{result.abduction, result.predictions});
        }
      } catch (...) {
        // A cache failure loses reuse, never the answer.
      }
    }
    return Expected<InferenceResult>(std::move(result));
  } catch (const std::exception& e) {
    // The lane boundary: ANY exception inside a job — inference, a
    // failpoint, an allocation — becomes a Status on this job's future.
    // The lane itself survives to serve the next query.
    return Expected<InferenceResult>(
        Status::internal(std::string("inference failed: ") + e.what()));
  } catch (...) {
    return Expected<InferenceResult>(
        Status::internal("inference failed: unknown exception"));
  }
}

}  // namespace veritas::service
