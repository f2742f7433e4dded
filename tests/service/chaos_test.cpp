// Chaos suite: the service's failure semantics under deterministic
// fault injection (util/failpoint.hpp) and deliberate overload.
//
// The contract under test, from docs/ARCHITECTURE.md "Failure semantics
// & overload behavior": every future the service hands out resolves
// with a definite Expected<InferenceResult> — under slow consumers,
// poisoned jobs, forced admission rejections, mid-flight shard churn
// and teardown — lanes survive anything a job does, and the outcome
// counters reconcile exactly:
//   submitted == computed + cache_hits + rejected + timed_out
//                + shed + failed
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/test_helpers.hpp"
#include "service/veritas_service.hpp"
#include "trace/trace_generator.hpp"
#include "util/failpoint.hpp"

namespace {

using namespace veritas;
using namespace std::chrono_literals;
using service::InferenceResult;
using service::Priority;
using service::Query;
using service::QueryKind;
using service::ServiceStats;
using service::VeritasService;
using util::Failpoints;
using util::ScopedFailpoint;

sim::SessionLog test_log(std::uint64_t seed) {
  const auto gtbw =
      trace::make_traces(trace::TraceFamily::kFccLike, 1, seed)[0];
  return core::testing::deployed_log(gtbw, 24);
}

core::VeritasConfig small_config() {
  core::VeritasConfig cfg;
  cfg.num_samples = 2;
  return cfg;
}

Query make_query(const sim::SessionLog& log, std::uint64_t seed,
                 Priority priority = Priority::kBatch) {
  Query query;
  query.log = log;
  query.shard = "main";
  query.seed = seed;
  query.options.priority = priority;
  return query;
}

/// Asserts the future resolved with the given terminal code.
void expect_code(std::future<Expected<InferenceResult>>& future,
                 StatusCode code) {
  const Expected<InferenceResult> result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), code) << result.status().to_string();
}

/// Occupies the single lane for `ms` by arming a one-shot sleep at the
/// execute failpoint; the next submitted job eats the sleep.
ScopedFailpoint occupy_lane(std::uint64_t ms) {
  Failpoints::Config config;
  config.mode = Failpoints::Config::Mode::kSleep;
  config.sleep_ms = ms;
  config.max_hits = 1;
  return ScopedFailpoint("service.lane.execute", config);
}

/// Waits (bounded) until the lane has dequeued the job that eats
/// occupy_lane's sleep. Until then that job still counts toward the
/// queue depth, so a submit racing the dequeue could see one job too
/// many (and be degraded, shed or bounced by mistake).
void wait_until_lane_busy(const ScopedFailpoint& lane_blocker) {
  const auto give_up = std::chrono::steady_clock::now() + 10s;
  while (lane_blocker.hits() == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(lane_blocker.hits(), 1u) << "the lane never took the slow job";
}

class ServiceChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::disable_all(); }
};

using ServiceChaos = ServiceChaosTest;  // suite alias for the CI filter

TEST_F(ServiceChaos, PoisonedJobBecomesInternalStatusAndLaneSurvives) {
  Failpoints::Config config;
  config.mode = Failpoints::Config::Mode::kThrow;
  config.max_hits = 1;
  ScopedFailpoint fp("service.lane.execute", config);

  service::ServiceOptions options;
  options.num_threads = 1;  // the poisoned job and its successors share
  options.cache_capacity = 0;  // one lane: survival is observable
  VeritasService service(options);
  service.add_shard("main", small_config());
  const sim::SessionLog log = test_log(1);

  auto poisoned = service.submit(make_query(log, 1));
  auto after1 = service.submit(make_query(log, 2));
  auto after2 = service.submit(make_query(log, 3));

  {
    const Expected<InferenceResult> result = poisoned.get();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInternal);
    EXPECT_NE(result.status().message().find("failpoint"),
              std::string::npos);
  }
  // The same lane keeps serving: a poisoned job never stalls it.
  EXPECT_NE(after1.get().value().abduction, nullptr);
  EXPECT_NE(after2.get().value().abduction, nullptr);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.computed, 2u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_TRUE(stats.reconciled());
  EXPECT_EQ(fp.hits(), 1u);
}

TEST_F(ServiceChaos, AdmissionRejectFailpointResolvesAsRejectedValue) {
  ScopedFailpoint fp("service.queue.push", {});  // kError: reject all

  service::ServiceOptions options;
  options.num_threads = 1;
  VeritasService service(options);
  service.add_shard("main", small_config());
  const sim::SessionLog log = test_log(2);

  auto rejected = service.submit(make_query(log, 1));
  expect_code(rejected, StatusCode::kRejected);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_TRUE(stats.reconciled());

  // Disarmed: the identical query now computes.
  Failpoints::disable("service.queue.push");
  EXPECT_NE(service.submit(make_query(log, 1)).get().value().abduction,
            nullptr);
}

TEST_F(ServiceChaos, CacheFillFailpointLosesReuseNeverTheAnswer) {
  ScopedFailpoint fp("service.cache.fill", {});  // kError: skip every fill

  service::ServiceOptions options;
  options.num_threads = 1;
  VeritasService service(options);
  service.add_shard("main", small_config());
  const sim::SessionLog log = test_log(3);

  EXPECT_NE(service.submit(make_query(log, 1)).get().value().abduction,
            nullptr);
  // Nothing was cached: the repeat recomputes instead of hitting.
  const Expected<InferenceResult> repeat =
      service.submit(make_query(log, 1)).get();
  EXPECT_FALSE(repeat.value().cache_hit);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.computed, 2u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_entries, 0u);
  EXPECT_TRUE(stats.reconciled());
  EXPECT_EQ(fp.hits(), 2u);
}

TEST_F(ServiceChaos, FailedSwapLeavesShardServingTheOldModel) {
  service::ServiceOptions options;
  options.num_threads = 1;
  VeritasService service(options);
  const std::uint64_t epoch = service.add_shard("main", small_config());
  const sim::SessionLog log = test_log(4);
  const Expected<InferenceResult> before =
      service.submit(make_query(log, 1)).get();

  {
    ScopedFailpoint fp("service.shard.swap", {});
    core::VeritasConfig swapped = small_config();
    swapped.sigma_mbps = 0.25;
    EXPECT_THROW(service.swap_shard("main", swapped),
                 util::FailpointTriggered);
  }
  // The failed swap published nothing: same epoch, same model, and the
  // old cache entry still hits.
  EXPECT_EQ(service.shard_epoch("main"), epoch);
  const Expected<InferenceResult> after =
      service.submit(make_query(log, 1)).get();
  EXPECT_TRUE(after.value().cache_hit);
  EXPECT_EQ(after.value().abduction.get(), before.value().abduction.get());
}

TEST_F(ServiceChaos, DeadlineExpiresAtDequeueBehindASlowJob) {
  auto lane_blocker = occupy_lane(300);

  service::ServiceOptions options;
  options.num_threads = 1;
  options.cache_capacity = 0;
  VeritasService service(options);
  service.add_shard("main", small_config());
  const sim::SessionLog log = test_log(5);

  auto slow = service.submit(make_query(log, 1));  // eats the 300ms sleep
  wait_until_lane_busy(lane_blocker);
  Query doomed = make_query(log, 2);
  doomed.options.deadline = std::chrono::steady_clock::now() + 50ms;
  auto expired = service.submit(std::move(doomed));

  EXPECT_NE(slow.get().value().abduction, nullptr);
  // By the time the lane freed up, the deadline was long gone: expired
  // at dequeue without burning the lane on it.
  expect_code(expired, StatusCode::kDeadlineExceeded);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.timed_out, 1u);
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_TRUE(stats.reconciled());
}

TEST_F(ServiceChaos, AdmissionTimeoutBoundsTheSubmitWait) {
  auto lane_blocker = occupy_lane(400);

  service::ServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 1;
  options.cache_capacity = 0;
  options.admission_timeout = 50ms;
  VeritasService service(options);
  service.add_shard("main", small_config());
  const sim::SessionLog log = test_log(6);

  auto slow = service.submit(make_query(log, 1));    // occupies the lane
  wait_until_lane_busy(lane_blocker);
  auto queued = service.submit(make_query(log, 2));  // fills the queue
  const auto start = std::chrono::steady_clock::now();
  auto bounced = service.submit(make_query(log, 3));  // must not block long
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_LT(waited, 300ms);  // bounded by the admission timeout, not the lane

  expect_code(bounced, StatusCode::kRejected);
  EXPECT_NE(slow.get().value().abduction, nullptr);
  EXPECT_NE(queued.get().value().abduction, nullptr);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_TRUE(stats.reconciled());
}

TEST_F(ServiceChaos, OverloadShedsBackgroundBeforeAnythingElse) {
  auto lane_blocker = occupy_lane(300);

  service::ServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 4;
  options.cache_capacity = 0;
  options.overload.queue_high_watermark = 0.25;  // 1 queued job = overload
  VeritasService service(options);
  service.add_shard("main", small_config());
  const sim::SessionLog log = test_log(7);

  auto slow = service.submit(make_query(log, 1));    // occupies the lane
  wait_until_lane_busy(lane_blocker);
  auto queued = service.submit(make_query(log, 2));  // depth 1: overloaded
  EXPECT_TRUE(service.overloaded());
  auto background =
      service.submit(make_query(log, 3, Priority::kBackground));
  expect_code(background, StatusCode::kShed);  // pre-shed at admission
  // Batch work is NOT shed — it queues normally.
  auto batch = service.submit(make_query(log, 4, Priority::kBatch));

  EXPECT_NE(slow.get().value().abduction, nullptr);
  EXPECT_NE(queued.get().value().abduction, nullptr);
  EXPECT_NE(batch.get().value().abduction, nullptr);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.computed, 3u);
  EXPECT_TRUE(stats.reconciled());
}

TEST_F(ServiceChaos, InteractiveArrivalDisplacesQueuedBackground) {
  auto lane_blocker = occupy_lane(300);

  service::ServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 1;
  options.cache_capacity = 0;
  // Keep the background job admissible: shed only by displacement here.
  options.overload.queue_high_watermark = 1.0;
  options.overload.shed_lowest_priority = false;
  VeritasService service(options);
  service.add_shard("main", small_config());
  const sim::SessionLog log = test_log(8);

  auto slow = service.submit(make_query(log, 1));  // occupies the lane
  wait_until_lane_busy(lane_blocker);
  auto background =
      service.submit(make_query(log, 2, Priority::kBackground));  // queued
  // The interactive arrival lands in O(1): the queued background job is
  // displaced and resolved as shed — no waiting behind it.
  auto interactive =
      service.submit(make_query(log, 3, Priority::kInteractive));

  expect_code(background, StatusCode::kShed);
  EXPECT_NE(slow.get().value().abduction, nullptr);
  EXPECT_NE(interactive.get().value().abduction, nullptr);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.computed, 2u);
  EXPECT_TRUE(stats.reconciled());
}

TEST_F(ServiceChaos, DegradedResultIsAnExactPrefixOfTheFullAnswer) {
  auto lane_blocker = occupy_lane(300);

  service::ServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 4;
  options.cache_capacity = 0;
  options.overload.queue_high_watermark = 0.25;
  options.overload.degraded_num_samples = 1;  // config asks for 2
  VeritasService service(options);
  service.add_shard("main", small_config());
  const sim::SessionLog log = test_log(9);

  auto slow = service.submit(make_query(log, 1));    // occupies the lane
  wait_until_lane_busy(lane_blocker);
  auto queued = service.submit(make_query(log, 2));  // depth 1: overloaded
  auto degraded = service.submit(make_query(log, 77));

  (void)slow.get();
  (void)queued.get();
  const Expected<InferenceResult> result = degraded.get();
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_TRUE(result.value().degraded);
  ASSERT_NE(result.value().abduction, nullptr);

  // Ground truth: the full-fidelity answer for the same (log, seed).
  core::Ehmm::Scratch scratch;
  const core::InferenceEngine engine{small_config()};
  const core::VeritasResult full = engine.infer_with_seed(log, scratch, 77);
  const core::VeritasResult& got = *result.value().abduction;
  ASSERT_EQ(full.samples.size(), 2u);
  ASSERT_EQ(got.samples.size(), 1u);  // truncated, not re-randomized
  EXPECT_EQ(got.log_likelihood, full.log_likelihood);
  EXPECT_EQ(got.map_states_mbps, full.map_states_mbps);
  const auto va = got.samples[0].values_mbps();
  const auto vb = full.samples[0].values_mbps();
  ASSERT_EQ(va.size(), vb.size());
  for (std::size_t i = 0; i < va.size(); ++i) EXPECT_EQ(va[i], vb[i]);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.degraded, 1u);
  EXPECT_TRUE(stats.reconciled());
}

TEST_F(ServiceChaos, DegradedResultsAreNeverCached) {
  auto lane_blocker = occupy_lane(300);

  service::ServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 4;  // cache stays enabled
  options.overload.queue_high_watermark = 0.25;
  options.overload.degraded_num_samples = 1;
  VeritasService service(options);
  service.add_shard("main", small_config());
  const sim::SessionLog log = test_log(10);

  auto slow = service.submit(make_query(log, 1));
  wait_until_lane_busy(lane_blocker);
  auto queued = service.submit(make_query(log, 2));
  auto degraded = service.submit(make_query(log, 77));
  (void)slow.get();
  (void)queued.get();
  EXPECT_TRUE(degraded.get().value().degraded);

  // Quiet again: the same query must recompute at full fidelity, not
  // hit a truncated cache entry.
  const Expected<InferenceResult> repeat =
      service.submit(make_query(log, 77)).get();
  EXPECT_FALSE(repeat.value().cache_hit);
  EXPECT_FALSE(repeat.value().degraded);
  ASSERT_EQ(repeat.value().abduction->samples.size(), 2u);
}

TEST_F(ServiceChaos, StaleCacheHitServedUnderOverloadAfterSwap) {
  service::ServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 4;
  options.overload.queue_high_watermark = 0.25;
  options.overload.serve_stale_hits = true;
  VeritasService service(options);
  const std::uint64_t old_epoch = service.add_shard("main", small_config());
  const sim::SessionLog log = test_log(11);

  // Warm the cache under the old epoch, then retire that model.
  const Expected<InferenceResult> fresh =
      service.submit(make_query(log, 1)).get();
  ASSERT_TRUE(fresh.ok());
  core::VeritasConfig swapped = small_config();
  swapped.sigma_mbps = 0.25;
  service.swap_shard("main", swapped);

  // Pressure: block the lane and queue a job so the detector arms.
  auto lane_blocker = occupy_lane(300);
  auto slow = service.submit(make_query(log, 2));
  wait_until_lane_busy(lane_blocker);
  auto queued = service.submit(make_query(log, 3));
  EXPECT_TRUE(service.overloaded());

  // The same query again: current epoch misses, previous epoch hits —
  // the slightly-old model now instead of the fresh model late.
  const Expected<InferenceResult> stale =
      service.submit(make_query(log, 1)).get();
  ASSERT_TRUE(stale.ok());
  EXPECT_TRUE(stale.value().cache_hit);
  EXPECT_TRUE(stale.value().stale);
  EXPECT_EQ(stale.value().shard_epoch, old_epoch);
  EXPECT_EQ(stale.value().abduction.get(), fresh.value().abduction.get());

  (void)slow.get();
  (void)queued.get();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.stale_hits, 1u);
  EXPECT_TRUE(stats.reconciled());
}

TEST_F(ServiceChaos, SlowConsumerFailpointOnlyDelaysDelivery) {
  Failpoints::Config config;
  config.mode = Failpoints::Config::Mode::kSleep;
  config.sleep_ms = 20;
  ScopedFailpoint fp("service.queue.pop", config);

  service::ServiceOptions options;
  options.num_threads = 2;
  options.cache_capacity = 0;
  VeritasService service(options);
  service.add_shard("main", small_config());
  const sim::SessionLog log = test_log(12);

  std::vector<std::future<Expected<InferenceResult>>> futures;
  for (std::uint64_t i = 0; i < 6; ++i) {
    futures.push_back(service.submit(make_query(log, i)));
  }
  for (auto& future : futures) {
    EXPECT_NE(future.get().value().abduction, nullptr);
  }
  EXPECT_GE(fp.hits(), 6u);  // every dequeue ate the sleep
  EXPECT_TRUE(service.stats().reconciled());
}

TEST_F(ServiceChaos, ThrowingPopFailpointNeverKillsALane) {
  Failpoints::Config config;
  config.mode = Failpoints::Config::Mode::kThrow;
  ScopedFailpoint fp("service.queue.pop", config);  // throws on EVERY pop

  service::ServiceOptions options;
  options.num_threads = 1;
  options.cache_capacity = 0;
  VeritasService service(options);
  service.add_shard("main", small_config());
  const sim::SessionLog log = test_log(13);

  // The pop-site throw is swallowed at the lane boundary; the popped
  // job itself still executes and resolves.
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_NE(service.submit(make_query(log, i)).get().value().abduction,
              nullptr);
  }
  EXPECT_EQ(fp.hits(), 3u);
}

TEST_F(ServiceChaos, RandomizedFaultsEveryFutureResolvesAndBooksBalance) {
  // Probabilistic (but deterministic: SplitMix64 over evaluation
  // indices) mix of admission rejections and poisoned jobs over a
  // mixed-priority workload. The invariants: every future resolves,
  // and the terminal buckets sum exactly to the submissions.
  Failpoints::Config push_config;
  push_config.probability = 0.2;
  push_config.seed = 7;
  ScopedFailpoint push_fp("service.queue.push", push_config);
  Failpoints::Config execute_config;
  execute_config.mode = Failpoints::Config::Mode::kThrow;
  execute_config.probability = 0.3;
  execute_config.seed = 11;
  ScopedFailpoint execute_fp("service.lane.execute", execute_config);

  constexpr std::uint64_t kQueries = 24;
  std::vector<std::future<Expected<InferenceResult>>> futures;
  {
    service::ServiceOptions options;
    options.num_threads = 3;
    options.cache_capacity = 0;
    VeritasService service(options);
    service.add_shard("main", small_config());
    const sim::SessionLog log = test_log(14);
    for (std::uint64_t i = 0; i < kQueries; ++i) {
      futures.push_back(service.submit(
          make_query(log, i, static_cast<Priority>(i % 3))));
    }
    for (auto& future : futures) future.wait();

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, kQueries);
    EXPECT_TRUE(stats.reconciled())
        << "computed=" << stats.computed << " rejected=" << stats.rejected
        << " failed=" << stats.failed << " shed=" << stats.shed;
    EXPECT_EQ(stats.rejected, push_fp.hits());
    EXPECT_EQ(stats.failed, execute_fp.hits());
    EXPECT_GT(stats.rejected, 0u);
    EXPECT_GT(stats.failed, 0u);
    EXPECT_GT(stats.computed, 0u);
  }
  // Survived teardown too; now every future must hold a definite value.
  std::uint64_t ok = 0, rejected = 0, failed = 0;
  for (auto& future : futures) {
    const Expected<InferenceResult> result = future.get();
    if (result.ok()) {
      ++ok;
    } else if (result.status().code() == StatusCode::kRejected) {
      ++rejected;
    } else if (result.status().code() == StatusCode::kInternal) {
      ++failed;
    } else {
      ADD_FAILURE() << "unexpected status " << result.status().to_string();
    }
  }
  EXPECT_EQ(ok + rejected + failed, kQueries);
}

TEST_F(ServiceChaos, TeardownUnderChaosResolvesEverything) {
  Failpoints::Config config;
  config.mode = Failpoints::Config::Mode::kThrow;
  config.probability = 0.5;
  config.seed = 3;
  ScopedFailpoint fp("service.lane.execute", config);

  std::vector<std::future<Expected<InferenceResult>>> futures;
  {
    service::ServiceOptions options;
    options.num_threads = 2;
    options.queue_capacity = 2;
    options.cache_capacity = 0;
    VeritasService service(options);
    service.add_shard("main", small_config());
    const sim::SessionLog log = test_log(15);
    for (std::uint64_t i = 0; i < 10; ++i) {
      futures.push_back(service.submit(make_query(log, i)));
    }
    // Destroyed with most of the burst queued and faults armed.
  }
  for (auto& future : futures) {
    const Expected<InferenceResult> result = future.get();
    if (result.ok()) {
      EXPECT_NE(result.value().abduction, nullptr);
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kInternal);
    }
  }
}

TEST_F(ServiceChaos, LaneQuotaKeepsAHotShardFromStarvingTheFleet) {
  // Not a failpoint test, but the same robustness family: with a
  // per-shard lane quota, a burst on one shard cannot occupy both
  // lanes; the other shard's query does not wait for the whole burst.
  service::ServiceOptions options;
  options.num_threads = 2;
  options.cache_capacity = 0;
  options.max_lanes_per_shard = 1;
  VeritasService service(options);
  service.add_shard("main", small_config());
  core::VeritasConfig other = small_config();
  other.sigma_mbps = 0.25;
  service.add_shard("other", other);

  const sim::SessionLog log = test_log(16);
  std::vector<std::future<Expected<InferenceResult>>> hot;
  for (std::uint64_t i = 0; i < 8; ++i) {
    hot.push_back(service.submit(make_query(log, i)));
  }
  Query cold_query = make_query(log, 99);
  cold_query.shard = "other";
  auto cold = service.submit(std::move(cold_query));

  EXPECT_NE(cold.get().value().abduction, nullptr);
  for (auto& future : hot) {
    EXPECT_NE(future.get().value().abduction, nullptr);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.computed, 9u);
  EXPECT_TRUE(stats.reconciled());
}

}  // namespace
