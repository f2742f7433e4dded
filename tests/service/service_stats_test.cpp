// Per-shard counter export from VeritasService: hit/miss/computed
// attribution to the right shard, persistence across hot swaps, the
// queue-depth gauge, and the compute-latency percentiles (p50/p95/p99
// from the per-shard lock-free histogram).
#include <future>
#include <vector>

#include <gtest/gtest.h>

#include "core/test_helpers.hpp"
#include "service/veritas_service.hpp"
#include "trace/trace_generator.hpp"
#include "util/latency_histogram.hpp"

namespace {

using namespace veritas;
using service::Query;
using service::ServiceStats;
using service::ShardStats;
using service::VeritasService;

sim::SessionLog test_log(std::uint64_t seed) {
  const auto gtbw =
      trace::make_traces(trace::TraceFamily::kFccLike, 1, seed)[0];
  return core::testing::deployed_log(gtbw, 24);
}

const ShardStats& find_shard(const std::vector<ShardStats>& stats,
                             const std::string& name) {
  for (const ShardStats& s : stats) {
    if (s.name == name) return s;
  }
  ADD_FAILURE() << "shard not found: " << name;
  static const ShardStats empty;
  return empty;
}

TEST(ServiceShardStats, CountersAttributeToTheRightShard) {
  service::ServiceOptions options;
  options.num_threads = 2;
  VeritasService svc(options);
  svc.add_shard("a", core::VeritasConfig{});
  core::VeritasConfig wide;
  wide.max_mbps = 12.0;
  svc.add_shard("b", wide);

  const sim::SessionLog log = test_log(5);
  // a: one miss then two hits; b: one miss.
  for (int round = 0; round < 3; ++round) {
    Query q;
    q.log = log;
    q.shard = "a";
    svc.submit(std::move(q)).get();
  }
  {
    Query q;
    q.log = log;
    q.shard = "b";
    svc.submit(std::move(q)).get();
  }

  const std::vector<ShardStats> stats = svc.shard_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "a");  // name-sorted
  EXPECT_EQ(stats[1].name, "b");

  const ShardStats& a = find_shard(stats, "a");
  EXPECT_EQ(a.submitted, 3u);
  EXPECT_EQ(a.computed, 1u);
  EXPECT_EQ(a.cache_hits, 2u);
  EXPECT_EQ(a.cache_misses, 1u);
  EXPECT_EQ(a.epoch, svc.shard_epoch("a"));

  const ShardStats& b = find_shard(stats, "b");
  EXPECT_EQ(b.submitted, 1u);
  EXPECT_EQ(b.computed, 1u);
  EXPECT_EQ(b.cache_hits, 0u);
  EXPECT_EQ(b.cache_misses, 1u);

  // Per-shard counters slice the service totals.
  const ServiceStats total = svc.stats();
  EXPECT_EQ(total.submitted, a.submitted + b.submitted);
  EXPECT_EQ(total.computed, a.computed + b.computed);
  EXPECT_EQ(total.cache_hits, a.cache_hits + b.cache_hits);
  EXPECT_EQ(total.cache_misses, a.cache_misses + b.cache_misses);
  EXPECT_EQ(total.queue_depth, 0u);  // drained
}

TEST(ServiceShardStats, CountersSurviveSwapAndResetOnReAdd) {
  VeritasService svc(service::ServiceOptions{.num_threads = 1});
  svc.add_shard("a", core::VeritasConfig{});
  const sim::SessionLog log = test_log(9);
  {
    Query q;
    q.log = log;
    q.shard = "a";
    svc.submit(std::move(q)).get();
  }
  EXPECT_EQ(svc.shard_stats()[0].submitted, 1u);

  // Hot swap: history persists, epoch moves.
  core::VeritasConfig swapped;
  swapped.sigma_mbps = 0.75;
  const std::uint64_t epoch = svc.swap_shard("a", swapped);
  const ShardStats after_swap = svc.shard_stats()[0];
  EXPECT_EQ(after_swap.submitted, 1u);
  EXPECT_EQ(after_swap.epoch, epoch);

  // Remove + re-add: fresh counters.
  EXPECT_TRUE(svc.remove_shard("a"));
  svc.add_shard("a", core::VeritasConfig{});
  const ShardStats fresh = svc.shard_stats()[0];
  EXPECT_EQ(fresh.submitted, 0u);
  EXPECT_EQ(fresh.computed, 0u);
}

TEST(ServiceShardStats, LatencyPercentilesCoverComputedQueries) {
  VeritasService svc(service::ServiceOptions{.num_threads = 2});
  svc.add_shard("a", core::VeritasConfig{});
  svc.add_shard("idle", core::VeritasConfig{});

  // 6 computed queries + 2 cache hits on shard "a"; "idle" gets none.
  std::vector<sim::SessionLog> logs;
  for (std::uint64_t s = 0; s < 6; ++s) logs.push_back(test_log(40 + s));
  for (auto& f : svc.submit_batch(logs, "a")) f.get();
  for (int hit = 0; hit < 2; ++hit) {
    Query q;
    q.log = logs[0];
    q.shard = "a";
    svc.submit(std::move(q)).get();
  }

  const std::vector<ShardStats> stats = svc.shard_stats();
  const ShardStats& a = find_shard(stats, "a");
  // Only computed queries are timed — hits complete in the submitter.
  EXPECT_EQ(a.latency_count, a.computed);
  EXPECT_EQ(a.latency_count, 6u);
  EXPECT_GT(a.latency_p50_us, 0.0);
  EXPECT_LE(a.latency_p50_us, a.latency_p95_us);
  EXPECT_LE(a.latency_p95_us, a.latency_p99_us);

  const ShardStats& idle = find_shard(stats, "idle");
  EXPECT_EQ(idle.latency_count, 0u);
  EXPECT_EQ(idle.latency_p99_us, 0.0);
}

TEST(ServiceShardStats, LatencyHistogramSurvivesSwapAndResetsOnReAdd) {
  VeritasService svc(service::ServiceOptions{.num_threads = 1});
  svc.add_shard("a", core::VeritasConfig{});
  {
    Query q;
    q.log = test_log(50);
    q.shard = "a";
    svc.submit(std::move(q)).get();
  }
  EXPECT_EQ(svc.shard_stats()[0].latency_count, 1u);

  // Hot swap: the histogram follows the shard name.
  core::VeritasConfig swapped;
  swapped.sigma_mbps = 0.75;
  svc.swap_shard("a", swapped);
  EXPECT_EQ(svc.shard_stats()[0].latency_count, 1u);

  // Remove + re-add: fresh histogram.
  EXPECT_TRUE(svc.remove_shard("a"));
  svc.add_shard("a", core::VeritasConfig{});
  EXPECT_EQ(svc.shard_stats()[0].latency_count, 0u);
  EXPECT_EQ(svc.shard_stats()[0].latency_p50_us, 0.0);
}

// The histogram itself: bucketing, nearest-rank percentiles, bounds.
TEST(LatencyHistogram, BucketsAndPercentiles) {
  using util::LatencyHistogram;
  EXPECT_EQ(LatencyHistogram::bucket_of(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_of(2), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_of(3), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1024), 11u);
  EXPECT_EQ(LatencyHistogram::upper_bound_us(0), 0.0);
  EXPECT_EQ(LatencyHistogram::upper_bound_us(3), 7.0);

  LatencyHistogram h;
  EXPECT_EQ(h.snapshot().percentile_us(0.5), 0.0);  // empty

  // 90 fast samples (~100 µs bucket) and 10 slow ones (~100 ms bucket):
  // p50 reads the fast bucket's upper bound, p99 lands in the slow
  // bucket and is clamped to the exact observed maximum (PR 8).
  for (int i = 0; i < 90; ++i) h.record_us(100);
  for (int i = 0; i < 10; ++i) h.record_us(100000);
  const LatencyHistogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.total, 100u);
  EXPECT_EQ(snap.sum_us, 90u * 100u + 10u * 100000u);
  EXPECT_EQ(snap.max_us, 100000u);
  EXPECT_EQ(snap.percentile_us(0.5), LatencyHistogram::upper_bound_us(
                                         LatencyHistogram::bucket_of(100)));
  EXPECT_EQ(snap.percentile_us(0.99), 100000.0);
  EXPECT_LE(snap.percentile_us(0.5), snap.percentile_us(0.99));
}

TEST(ServiceShardStats, OutcomeBreakdownIsZeroAndReconciledOnHappyPath) {
  // The failure buckets exist but a healthy workload never touches
  // them — and the books balance exactly at quiescence.
  VeritasService svc(service::ServiceOptions{.num_threads = 2});
  svc.add_shard("a", core::VeritasConfig{});
  std::vector<sim::SessionLog> logs;
  for (std::uint64_t s = 0; s < 4; ++s) logs.push_back(test_log(60 + s));
  for (auto& f : svc.submit_batch(logs, "a")) f.get();
  for (auto& f : svc.submit_batch(logs, "a")) f.get();  // warm round

  const ServiceStats total = svc.stats();
  EXPECT_EQ(total.rejected, 0u);
  EXPECT_EQ(total.failed, 0u);
  EXPECT_TRUE(total.reconciled());
  EXPECT_EQ(total.queue_depth, 0u);

  const std::vector<ShardStats> shard_stats = svc.shard_stats();
  const ShardStats& a = find_shard(shard_stats, "a");
  EXPECT_EQ(a.rejected, 0u);
  EXPECT_EQ(a.failed, 0u);
  EXPECT_EQ(a.in_flight, 0u);
  EXPECT_EQ(a.submitted, a.computed + a.cache_hits);
}

TEST(ServiceShardStats, QueueDepthGaugeReflectsPendingJobs) {
  // No worker lanes would deadlock the bounded queue; instead use one
  // lane and watch the gauge drain to zero after the batch completes.
  VeritasService svc(service::ServiceOptions{.num_threads = 1});
  svc.add_shard("a", core::VeritasConfig{});
  std::vector<sim::SessionLog> logs;
  for (std::uint64_t s = 0; s < 4; ++s) logs.push_back(test_log(20 + s));
  auto futures = svc.submit_batch(logs, "a");
  for (auto& f : futures) f.get();
  EXPECT_EQ(svc.stats().queue_depth, 0u);
  EXPECT_EQ(svc.shard_stats()[0].computed, 4u);
}

}  // namespace
