// Service-layer semantics: registry lifecycle (add/swap/remove with
// epochs), cache hit/miss accounting and invalidation, bounded-queue
// backpressure, and the headline guarantee — payloads bit-identical to
// the direct single-threaded engine path for every lane count.
#include "service/veritas_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <string>
#include <vector>

#include "abr/abr_factory.hpp"
#include "net/network_path.hpp"
#include "sim/session.hpp"
#include "trace/trace_generator.hpp"
#include "util/expects.hpp"
#include "video/ladder_presets.hpp"

namespace veritas::service {
namespace {

std::vector<sim::SessionLog> make_logs(std::size_t count,
                                       std::uint64_t seed = 77) {
  const auto traces =
      trace::make_traces(trace::TraceFamily::kFccLike, count, seed);
  video::VideoConfig vcfg = video::default_video_config();
  vcfg.duration_s = 40.0;  // ~20 chunks: fast but non-trivial sessions
  const video::Video video(vcfg);
  std::vector<sim::SessionLog> logs;
  logs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto abr = abr::make_abr(i % 2 == 0 ? "mpc" : "bba");
    const net::NetworkPath path(traces[i], 0.08);
    logs.push_back(sim::run_session(video, *abr, path).log);
  }
  return logs;
}

core::VeritasConfig config_a() {
  core::VeritasConfig cfg;
  cfg.num_samples = 2;
  return cfg;
}

core::VeritasConfig config_b() {
  core::VeritasConfig cfg;
  cfg.num_samples = 2;
  cfg.sigma_mbps = 0.25;  // a genuinely different model
  return cfg;
}

/// Exact (bit-level) equality of two abduction results.
void expect_identical(const core::VeritasResult& a,
                      const core::VeritasResult& b) {
  EXPECT_EQ(a.log_likelihood, b.log_likelihood);
  EXPECT_EQ(a.map_states_mbps, b.map_states_mbps);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  const auto traces_equal = [](const trace::BandwidthTrace& x,
                               const trace::BandwidthTrace& y) {
    const auto xv = x.values_mbps();
    const auto yv = y.values_mbps();
    return xv.size() == yv.size() &&
           std::equal(xv.begin(), xv.end(), yv.begin());
  };
  EXPECT_TRUE(traces_equal(a.map_trace, b.map_trace));
  for (std::size_t s = 0; s < a.samples.size(); ++s) {
    EXPECT_TRUE(traces_equal(a.samples[s], b.samples[s])) << "sample " << s;
  }
  ASSERT_EQ(a.posterior_marginals.rows(), b.posterior_marginals.rows());
  ASSERT_EQ(a.posterior_marginals.cols(), b.posterior_marginals.cols());
  EXPECT_EQ(a.posterior_marginals.max_abs_diff(b.posterior_marginals), 0.0);
}

TEST(VeritasService, RegistryLifecycle) {
  ServiceOptions options;
  options.num_threads = 1;
  VeritasService service(options);
  EXPECT_FALSE(service.has_shard("mpc"));
  const std::uint64_t e0 = service.add_shard("mpc", config_a());
  const std::uint64_t e1 = service.add_shard("bba", config_a());
  EXPECT_NE(e0, e1);  // epochs unique across shards
  EXPECT_TRUE(service.has_shard("mpc"));
  EXPECT_EQ(service.shard_names(), (std::vector<std::string>{"bba", "mpc"}));
  EXPECT_EQ(service.shard_epoch("mpc"), e0);

  const std::uint64_t e2 = service.swap_shard("mpc", config_b());
  EXPECT_GT(e2, e1);  // bumped past every prior epoch
  EXPECT_EQ(service.shard_epoch("mpc"), e2);

  EXPECT_TRUE(service.remove_shard("bba"));
  EXPECT_FALSE(service.remove_shard("bba"));
  EXPECT_FALSE(service.has_shard("bba"));
  EXPECT_THROW(service.shard_epoch("bba"), ContractViolation);
  EXPECT_THROW(service.swap_shard("bba", config_a()), ContractViolation);
}

TEST(VeritasService, UnknownShardResolvesAsNotFoundValue) {
  // Robustness contract: a typo'd shard name is an environment error,
  // not a caller bug — it travels as a Status value, never a throw.
  VeritasService service;
  Query query;
  query.log = make_logs(1)[0];
  query.shard = "nope";
  auto future = service.submit(std::move(query));
  const Expected<InferenceResult> result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().message().find("nope"), std::string::npos);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_TRUE(stats.reconciled());

  // try_submit hands back a resolved future too (not a nullopt: the
  // queue was never involved).
  Query again;
  again.log = make_logs(1)[0];
  again.shard = "nope";
  auto maybe = service.try_submit(std::move(again));
  ASSERT_TRUE(maybe.has_value());
  EXPECT_EQ(maybe->get().status().code(), StatusCode::kNotFound);
}

TEST(VeritasService, CacheHitAndMissCounters) {
  ServiceOptions options;
  options.num_threads = 2;
  VeritasService service(options);
  service.add_shard("main", config_a());
  const auto logs = make_logs(3);

  for (auto& future : service.submit_batch(logs, "main")) future.get();
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.computed, 3u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 3u);
  EXPECT_EQ(stats.cache_entries, 3u);

  // The same workload again: answered entirely from the cache.
  std::vector<InferenceResult> warm;
  for (auto& future : service.submit_batch(logs, "main")) {
    warm.push_back(future.get().value());
  }
  stats = service.stats();
  EXPECT_EQ(stats.submitted, 6u);
  EXPECT_EQ(stats.computed, 3u);  // nothing recomputed
  EXPECT_EQ(stats.cache_hits, 3u);
  EXPECT_EQ(stats.cache_misses, 3u);
  for (const InferenceResult& result : warm) {
    EXPECT_TRUE(result.cache_hit);
    ASSERT_NE(result.abduction, nullptr);
  }
}

TEST(VeritasService, CachedResultEqualsFreshComputation) {
  ServiceOptions options;
  options.num_threads = 1;
  VeritasService service(options);
  service.add_shard("main", config_a());
  const auto logs = make_logs(1);

  Query query;
  query.log = logs[0];
  query.shard = "main";
  const InferenceResult cold = service.submit(query).get().value();
  const InferenceResult hot = service.submit(query).get().value();
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(hot.cache_hit);
  EXPECT_EQ(cold.abduction.get(), hot.abduction.get());  // shared payload
  expect_identical(*cold.abduction, *hot.abduction);
}

TEST(VeritasService, DistinctSeedsAreDistinctCacheEntries) {
  VeritasService service;
  service.add_shard("main", config_a());
  const auto logs = make_logs(1);

  Query query;
  query.log = logs[0];
  query.shard = "main";
  query.seed = 1;
  const InferenceResult one = service.submit(query).get().value();
  query.seed = 2;
  const InferenceResult two = service.submit(query).get().value();
  EXPECT_FALSE(two.cache_hit);  // different sampling stream, new entry
  // Posterior samples differ; the seed-independent pieces agree.
  EXPECT_EQ(one.abduction->log_likelihood, two.abduction->log_likelihood);
  query.seed = 1;
  EXPECT_TRUE(service.submit(query).get().value().cache_hit);
}

TEST(VeritasService, SeedXorResolvesAgainstShardConfig) {
  VeritasService service;
  service.add_shard("main", config_a());
  const auto logs = make_logs(1);

  // seed_xor = s must land on the same cache entry (and sampling
  // stream) as an explicit seed of config.seed ^ s.
  Query xored;
  xored.log = logs[0];
  xored.shard = "main";
  xored.seed_xor = 99;
  const InferenceResult via_xor = service.submit(xored).get().value();

  Query explicit_seed;
  explicit_seed.log = logs[0];
  explicit_seed.shard = "main";
  explicit_seed.seed = config_a().seed ^ 99ULL;
  const InferenceResult via_seed = service.submit(explicit_seed).get().value();
  EXPECT_TRUE(via_seed.cache_hit);
  EXPECT_EQ(via_seed.abduction.get(), via_xor.abduction.get());
}

TEST(VeritasService, PredictionQueriesIgnoreSeedInCacheKey) {
  VeritasService service;
  service.add_shard("main", config_a());
  const auto logs = make_logs(1);

  Query query;
  query.log = logs[0];
  query.shard = "main";
  query.kind = QueryKind::kPredictSequence;
  query.seed = 1;
  const InferenceResult one = service.submit(query).get().value();
  query.seed = 2;
  const InferenceResult two = service.submit(query).get().value();
  // Predictions are seed-independent: one computation, one entry.
  EXPECT_TRUE(two.cache_hit);
  EXPECT_EQ(one.predictions.get(), two.predictions.get());
  EXPECT_EQ(service.stats().computed, 1u);
}

TEST(VeritasService, SwapShardInvalidatesCacheViaEpoch) {
  VeritasService service;
  service.add_shard("main", config_a());
  const auto logs = make_logs(1);

  Query query;
  query.log = logs[0];
  query.shard = "main";
  const InferenceResult before = service.submit(query).get().value();
  EXPECT_TRUE(service.submit(query).get().value().cache_hit);

  // Retrain/replace: same name, different model, new epoch.
  const std::uint64_t epoch = service.swap_shard("main", config_b());
  const InferenceResult after = service.submit(query).get().value();
  EXPECT_FALSE(after.cache_hit);  // old entry unreachable by construction
  EXPECT_EQ(after.shard_epoch, epoch);
  EXPECT_NE(before.abduction->log_likelihood,
            after.abduction->log_likelihood);  // genuinely the new model

  // The new model's entry caches normally from here on.
  EXPECT_TRUE(service.submit(query).get().value().cache_hit);
}

TEST(VeritasService, BackpressureTinyQueueStillCompletesEverything) {
  ServiceOptions options;
  options.num_threads = 2;
  options.queue_capacity = 2;  // far smaller than the workload
  options.cache_capacity = 0;  // force every query through the queue
  VeritasService service(options);
  service.add_shard("main", config_a());
  const auto logs = make_logs(12);

  auto futures = service.submit_batch(logs, "main");
  std::size_t completed = 0;
  for (auto& future : futures) {
    if (future.get().value().abduction != nullptr) ++completed;
  }
  EXPECT_EQ(completed, logs.size());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.computed, logs.size());
  EXPECT_EQ(stats.cache_hits, 0u);  // cache disabled
  EXPECT_EQ(stats.cache_misses, 0u);
}

TEST(VeritasService, TrySubmitReportsFullQueue) {
  ServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 1;
  options.cache_capacity = 0;
  VeritasService service(options);
  // A deliberately heavy model (k = 301 states, so every recursion step
  // is ~200x the default's work) keeps per-job cost far above the
  // submit loop's per-query cost: the estimator cache and the SIMD
  // kernels made default-config jobs fast enough that a 1-lane service
  // could drain this burst without ever filling the queue.
  core::VeritasConfig heavy = config_a();
  heavy.epsilon_mbps = 0.1;
  heavy.max_mbps = 30.0;
  service.add_shard("main", heavy);
  const auto logs = make_logs(1);

  // Saturate: with one lane and capacity 1, some try_submit in a burst
  // must be rejected; accepted ones must all complete.
  std::vector<std::future<Expected<InferenceResult>>> accepted;
  std::size_t rejected = 0;
  for (int i = 0; i < 64; ++i) {
    Query query;
    query.log = logs[0];
    query.shard = "main";
    query.seed = static_cast<std::uint64_t>(i);  // all distinct jobs
    if (auto future = service.try_submit(std::move(query))) {
      accepted.push_back(std::move(*future));
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
  ASSERT_FALSE(accepted.empty());
  for (auto& future : accepted) EXPECT_NE(future.get().value().abduction, nullptr);
}

TEST(VeritasService, RejectedTrySubmitSkewsNoCounters) {
  ServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 1;  // cache stays enabled (default capacity)
  VeritasService service(options);
  service.add_shard("main", config_a());
  const auto logs = make_logs(1);

  std::vector<std::future<Expected<InferenceResult>>> accepted;
  for (int i = 0; i < 32; ++i) {
    Query query;
    query.log = logs[0];
    query.shard = "main";
    query.seed = static_cast<std::uint64_t>(i);  // all distinct, no hits
    if (auto future = service.try_submit(std::move(query))) {
      accepted.push_back(std::move(*future));
    }
  }
  for (auto& future : accepted) future.get();

  // Rejected probes must leave no trace: every counter reflects only
  // the accepted queries.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, accepted.size());
  EXPECT_EQ(stats.computed, accepted.size());
  EXPECT_EQ(stats.cache_misses, accepted.size());
  EXPECT_EQ(stats.cache_hits, 0u);
}

TEST(VeritasService, MixedShardBatchesBitIdenticalToDirectEngineAnyLanes) {
  const auto logs = make_logs(8);
  // Ground truth: the direct, single-threaded engine path per shard.
  const core::InferenceEngine engine_a{config_a()};
  const core::InferenceEngine engine_b{config_b()};
  std::vector<core::VeritasResult> expected;
  expected.reserve(logs.size());
  for (std::size_t i = 0; i < logs.size(); ++i) {
    expected.push_back((i % 2 == 0 ? engine_a : engine_b).infer(logs[i]));
  }

  for (const std::size_t lanes : {std::size_t{1}, std::size_t{4},
                                  std::size_t{8}}) {
    ServiceOptions options;
    options.num_threads = lanes;
    VeritasService service(options);
    service.add_shard("a", config_a());
    service.add_shard("b", config_b());

    std::vector<std::future<Expected<InferenceResult>>> futures;
    futures.reserve(logs.size());
    for (std::size_t i = 0; i < logs.size(); ++i) {
      Query query;
      query.log = logs[i];
      query.shard = i % 2 == 0 ? "a" : "b";
      futures.push_back(service.submit(std::move(query)));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const InferenceResult result = futures[i].get().value();
      ASSERT_NE(result.abduction, nullptr) << "lanes " << lanes;
      expect_identical(*result.abduction, expected[i]);
    }

    // Warm repeat at the same lane count: hits, still bit-identical.
    for (std::size_t i = 0; i < logs.size(); ++i) {
      Query query;
      query.log = logs[i];
      query.shard = i % 2 == 0 ? "a" : "b";
      const InferenceResult result = service.submit(std::move(query)).get().value();
      EXPECT_TRUE(result.cache_hit);
      expect_identical(*result.abduction, expected[i]);
    }
  }
}

TEST(VeritasService, PredictSequenceMatchesDirectFacade) {
  VeritasService service;
  service.add_shard("main", config_a());
  const auto logs = make_logs(2);
  const core::Veritas veritas(config_a());

  for (const auto& log : logs) {
    Query query;
    query.log = log;
    query.shard = "main";
    query.kind = QueryKind::kPredictSequence;
    const InferenceResult result = service.submit(std::move(query)).get().value();
    ASSERT_NE(result.predictions, nullptr);
    const auto expected = veritas.predict_sequence(log);
    ASSERT_EQ(result.predictions->size(), expected.size());
    for (std::size_t n = 0; n < expected.size(); ++n) {
      EXPECT_EQ((*result.predictions)[n].expected_gtbw_mbps,
                expected[n].expected_gtbw_mbps);
      EXPECT_EQ((*result.predictions)[n].throughput_mbps,
                expected[n].throughput_mbps);
      EXPECT_EQ((*result.predictions)[n].download_time_s,
                expected[n].download_time_s);
    }
  }
  // Abduction and prediction of the same log are distinct cache entries.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_misses, 2u);
}

TEST(VeritasService, HotSwapUnderLoadKeepsInFlightQueriesConsistent) {
  ServiceOptions options;
  options.num_threads = 4;
  options.cache_capacity = 0;  // every submission computes
  VeritasService service(options);
  service.add_shard("main", config_a());
  const auto logs = make_logs(6);
  const core::InferenceEngine engine_a{config_a()};
  const core::InferenceEngine engine_b{config_b()};

  // Interleave submissions with registry churn. Every future must
  // resolve to the model its submission saw: config A before the swap,
  // config B after — never a torn mixture.
  std::vector<std::future<Expected<InferenceResult>>> phase_a;
  for (const auto& log : logs) {
    Query query;
    query.log = log;
    query.shard = "main";
    phase_a.push_back(service.submit(std::move(query)));
  }
  const std::uint64_t new_epoch = service.swap_shard("main", config_b());
  std::vector<std::future<Expected<InferenceResult>>> phase_b;
  for (const auto& log : logs) {
    Query query;
    query.log = log;
    query.shard = "main";
    phase_b.push_back(service.submit(std::move(query)));
  }

  for (std::size_t i = 0; i < logs.size(); ++i) {
    const InferenceResult a = phase_a[i].get().value();
    const InferenceResult b = phase_b[i].get().value();
    EXPECT_LT(a.shard_epoch, new_epoch);
    EXPECT_EQ(b.shard_epoch, new_epoch);
    expect_identical(*a.abduction, engine_a.infer(logs[i]));
    expect_identical(*b.abduction, engine_b.infer(logs[i]));
  }
}

TEST(VeritasService, DestructorCompletesAcceptedWork) {
  const auto logs = make_logs(4);
  std::vector<std::future<Expected<InferenceResult>>> futures;
  {
    ServiceOptions options;
    options.num_threads = 2;
    VeritasService service(options);
    service.add_shard("main", config_a());
    futures = service.submit_batch(logs, "main");
    // Service destroyed here, possibly with jobs still queued.
  }
  for (auto& future : futures) {
    EXPECT_NE(future.get().value().abduction, nullptr);  // never a broken promise
  }
}

TEST(VeritasService, DestructionUnderLoadResolvesEveryFuture) {
  // Destroy the service while most of the workload is still queued
  // behind a single slow lane and a tiny queue: every accepted future
  // must still resolve with a definite Expected — a payload here, since
  // the destructor drains accepted work.
  const auto logs = make_logs(10);
  std::vector<std::future<Expected<InferenceResult>>> futures;
  {
    ServiceOptions options;
    options.num_threads = 1;
    options.queue_capacity = 2;
    options.cache_capacity = 0;
    VeritasService service(options);
    service.add_shard("main", config_a());
    futures = service.submit_batch(logs, "main");
    // Destroyed here: some jobs in flight, some queued.
  }
  for (auto& future : futures) {
    const Expected<InferenceResult> result = future.get();
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_NE(result.value().abduction, nullptr);
  }
}

TEST(VeritasService, RemoveShardMidFlightCompletesOnPinnedEngine) {
  // Queries pin their engine at submit: removing the shard under a
  // queued + in-flight workload must not fail or reroute anything.
  ServiceOptions options;
  options.num_threads = 2;
  options.cache_capacity = 0;
  VeritasService service(options);
  service.add_shard("main", config_a());
  const auto logs = make_logs(8);
  auto futures = service.submit_batch(logs, "main");
  EXPECT_TRUE(service.remove_shard("main"));

  const core::InferenceEngine engine{config_a()};
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Expected<InferenceResult> result = futures[i].get();
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    expect_identical(*result.value().abduction, engine.infer(logs[i]));
  }
  // The shard is gone for *new* submissions.
  Query query;
  query.log = logs[0];
  query.shard = "main";
  EXPECT_EQ(service.submit(std::move(query)).get().status().code(),
            StatusCode::kNotFound);
}

TEST(VeritasService, LruEvictionBoundsCacheEntries) {
  ServiceOptions options;
  options.num_threads = 1;
  options.cache_capacity = 4;
  options.cache_shards = 1;
  VeritasService service(options);
  service.add_shard("main", config_a());
  const auto logs = make_logs(8);
  for (auto& future : service.submit_batch(logs, "main")) future.get();
  const ServiceStats stats = service.stats();
  EXPECT_LE(stats.cache_entries, 4u);
  EXPECT_GE(stats.cache_evictions, 4u);
}

}  // namespace
}  // namespace veritas::service
