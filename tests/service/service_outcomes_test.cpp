// The service's books seen through every view at once: one workload
// drives each outcome in kOutcomeTable at least once (failpoints, as in
// chaos_test.cpp), then stats(), shard_stats(), the
// `*_queries_total` metric families, the single-counter families and
// the veritas_unreconciled_queries gauge must all agree, bucket for
// bucket, with the counts the workload implies.
#include <gtest/gtest.h>

#include <array>
#include <future>
#include <string>
#include <vector>

#include "core/test_helpers.hpp"
#include "service/veritas_service.hpp"
#include "trace/trace_generator.hpp"
#include "util/failpoint.hpp"
#include "util/metrics.hpp"

namespace {

using namespace veritas;
using service::InferenceResult;
using service::Outcome;
using service::OutcomeRow;
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

Query make_query(const sim::SessionLog& log, std::uint64_t seed) {
  Query query;
  query.log = log;
  query.shard = "main";
  query.seed = seed;
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
    default:
      return {nullptr, nullptr};
  }
}

TEST(ServiceOutcomes, EveryOutcomeIsCountedOnceInEveryView) {
  service::ServiceOptions options;
  options.num_threads = 1;
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
  // A second computed query, so no row's expected count is ambiguous
  // with another's.
  EXPECT_FALSE(service.submit(make_query(log, 4)).get().value().cache_hit);

  // Counts in Outcome order: submitted, computed, cache_hits,
  // cache_misses, rejected, failed.
  const std::array<std::uint64_t, service::kNumOutcomes> expected{
      5, 2, 1, 3, 1, 1};

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
