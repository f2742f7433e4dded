// The service's books seen through every view at once: one workload
// drives each outcome in kOutcomeTable at least once (failpoints and a
// tiny queue, as in chaos_test.cpp), then stats(), shard_stats(), the
// `*_queries_total` metric families, the single-counter families and
// the veritas_unreconciled_queries gauge must all agree, bucket for
// bucket, with the counts the workload implies.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/test_helpers.hpp"
#include "service/veritas_service.hpp"
#include "trace/trace_generator.hpp"
#include "util/failpoint.hpp"
#include "util/metrics.hpp"

namespace {

using namespace veritas;
using namespace std::chrono_literals;
using service::InferenceResult;
using service::Outcome;
using service::OutcomeRow;
using service::Priority;
using service::Query;
using service::VeritasService;
using util::Failpoints;
using util::ScopedFailpoint;

sim::SessionLog test_log() {
  const auto gtbw = trace::make_traces(trace::TraceFamily::kFccLike, 1, 31)[0];
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

StatusCode code_of(std::future<Expected<InferenceResult>>& future) {
  const Expected<InferenceResult> result = future.get();
  return result.ok() ? StatusCode::kOk : result.status().code();
}

/// True iff `text` contains the exact exposition line `line` + "\n".
bool has_line(const std::string& text, const std::string& line) {
  const std::string needle = line + "\n";
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    if (pos == 0 || text[pos - 1] == '\n') return true;
  }
  return false;
}

/// The single-counter family of each outcome without an `outcome`
/// label: {service family, shard family or nullptr}.
std::array<const char*, 2> unlabelled_families(Outcome outcome) {
  switch (outcome) {
    case Outcome::kSubmitted:
      return {"veritas_queries_submitted_total",
              "veritas_shard_submitted_total"};
    case Outcome::kCacheMiss:
      return {"veritas_result_cache_misses_total", nullptr};
    case Outcome::kDegraded:
      return {"veritas_queries_degraded_total", nullptr};
    case Outcome::kStaleHit:
      return {"veritas_stale_hits_total", nullptr};
    default:
      return {nullptr, nullptr};
  }
}

TEST(ServiceOutcomes, EveryOutcomeIsCountedOnceInEveryView) {
  service::ServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 4;
  options.overload.queue_high_watermark = 0.25;  // 1 queued job = overload
  options.overload.serve_stale_hits = true;
  options.overload.degraded_num_samples = 1;  // config asks for 2
  VeritasService service(options);
  service.add_shard("main", small_config());
  const sim::SessionLog log = test_log();

  // computed + cache_miss, then cache_hit on the repeat.
  EXPECT_FALSE(service.submit(make_query(log, 1)).get().value().cache_hit);
  EXPECT_TRUE(service.submit(make_query(log, 1)).get().value().cache_hit);
  {
    // failed: the lane throws (after the job was accepted: a miss too).
    Failpoints::Config config;
    config.mode = Failpoints::Config::Mode::kThrow;
    config.max_hits = 1;
    const ScopedFailpoint poison("service.lane.execute", config);
    auto failed = service.submit(make_query(log, 2));
    EXPECT_EQ(code_of(failed), StatusCode::kInternal);
  }
  {
    // rejected: admission refuses the push.
    const ScopedFailpoint refuse("service.queue.push", {});
    auto rejected = service.submit(make_query(log, 3));
    EXPECT_EQ(code_of(rejected), StatusCode::kRejected);
  }
  // timed_out: the deadline is already gone at admission.
  Query late = make_query(log, 4);
  late.options.deadline = std::chrono::steady_clock::now() - 1ms;
  auto timed_out = service.submit(std::move(late));
  EXPECT_EQ(code_of(timed_out), StatusCode::kDeadlineExceeded);

  // Retire the model that cached seed 1, then overload the service: a
  // slow job holds the lane and one queued job arms the detector.
  core::VeritasConfig swapped = small_config();
  swapped.sigma_mbps = 0.25;
  service.swap_shard("main", swapped);
  Failpoints::Config sleep;
  sleep.mode = Failpoints::Config::Mode::kSleep;
  sleep.sleep_ms = 300;
  sleep.max_hits = 1;
  const ScopedFailpoint lane_blocker("service.lane.execute", sleep);
  auto slow = service.submit(make_query(log, 5));
  const auto give_up = std::chrono::steady_clock::now() + 10s;
  while (lane_blocker.hits() == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(lane_blocker.hits(), 1u) << "the lane never took the slow job";
  auto queued = service.submit(make_query(log, 6));
  ASSERT_TRUE(service.overloaded());

  // stale_hit (and cache_hit): seed 1 from the previous epoch.
  auto stale = service.submit(make_query(log, 1));
  // shed: background work is dropped at admission.
  auto shed = service.submit(make_query(log, 7, Priority::kBackground));
  // degraded (and computed, cache_miss): fewer samples.
  auto degraded = service.submit(make_query(log, 8));

  EXPECT_TRUE(stale.get().value().stale);
  EXPECT_EQ(code_of(shed), StatusCode::kShed);
  EXPECT_TRUE(degraded.get().value().degraded);
  EXPECT_EQ(code_of(slow), StatusCode::kOk);
  EXPECT_EQ(code_of(queued), StatusCode::kOk);

  // Counts in Outcome order: submitted, computed, cache_hits,
  // cache_misses, rejected, timed_out, shed, failed, degraded, stale_hits.
  const std::array<std::uint64_t, service::kNumOutcomes> expected{
      10, 4, 2, 5, 1, 1, 1, 1, 1, 1};

  const service::ServiceStats stats = service.stats();
  const std::vector<service::ShardStats> shards = service.shard_stats();
  ASSERT_EQ(shards.size(), 1u);
  util::MetricsRegistry registry;
  service.register_metrics(registry);
  const std::string scrape = registry.expose();

  for (const OutcomeRow& row : service::kOutcomeTable) {
    SCOPED_TRACE(row.name);
    const auto want = expected[static_cast<std::size_t>(row.outcome)];
    EXPECT_EQ(stats.*row.field, want);
    EXPECT_EQ(shards[0].*row.field, want);
    const std::string value = std::string(" ") + std::to_string(want);
    if (row.metric_label != nullptr) {
      const std::string label = std::string("outcome=\"") + row.metric_label;
      EXPECT_TRUE(has_line(scrape, "veritas_queries_total{" + label + "\"}" +
                                       value));
      EXPECT_TRUE(has_line(scrape,
                           "veritas_shard_queries_total{shard=\"main\"," +
                               label + "\"}" + value));
    }
    const auto [total_family, shard_family] = unlabelled_families(row.outcome);
    if (total_family != nullptr) {
      EXPECT_TRUE(has_line(scrape, total_family + value));
    }
    if (shard_family != nullptr) {
      EXPECT_TRUE(has_line(scrape, std::string(shard_family) +
                                       "{shard=\"main\"}" + value));
    }
  }
  EXPECT_TRUE(stats.reconciled());
  EXPECT_TRUE(shards[0].reconciled());
  EXPECT_TRUE(has_line(scrape, "veritas_unreconciled_queries 0"));
}

}  // namespace
