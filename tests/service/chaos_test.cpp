// Chaos suite: the service's failure semantics under deterministic
// fault injection (util/failpoint.hpp).
//
// The contract under test, from docs/ARCHITECTURE.md "Failure
// semantics": every future the service hands out resolves with a
// definite Expected<InferenceResult> — under slow consumers, poisoned
// jobs, forced admission rejections, mid-flight shard churn and
// teardown — lanes survive anything a job does, and the outcome
// counters reconcile exactly:
//   submitted == computed + cache_hits + rejected + failed
#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "core/test_helpers.hpp"
#include "service/veritas_service.hpp"
#include "trace/trace_generator.hpp"
#include "util/failpoint.hpp"

namespace {

using namespace veritas;
using service::InferenceResult;
using service::Query;
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

Query make_query(const sim::SessionLog& log, std::uint64_t seed) {
  Query query;
  query.log = log;
  query.shard = "main";
  query.seed = seed;
  return query;
}

/// Asserts the future resolved with the given terminal code.
void expect_code(std::future<Expected<InferenceResult>>& future,
                 StatusCode code) {
  const Expected<InferenceResult> result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), code) << result.status().to_string();
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
  // indices) mix of admission rejections and poisoned jobs. The
  // invariants: every future resolves,
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
      futures.push_back(service.submit(make_query(log, i)));
    }
    for (auto& future : futures) future.wait();

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, kQueries);
    EXPECT_TRUE(stats.reconciled())
        << "computed=" << stats.computed << " rejected=" << stats.rejected
        << " failed=" << stats.failed;
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

}  // namespace
