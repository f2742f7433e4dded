// VeritasService::register_metrics: the Prometheus families the service
// exports, scraped after a real workload — outcome counters that match
// ServiceStats, the reconciliation self-check gauge at zero when
// quiescent, per-shard labels, the compute-latency histogram, and the
// build-info series. The tracing-ON section at the bottom checks that
// per-query spans reconcile with each other (phase durations nest
// inside the root service.execute span).
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/test_helpers.hpp"
#include "math/simd_kernels.hpp"
#include "service/veritas_service.hpp"
#include "trace/trace_generator.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace {

using namespace veritas;
using service::Query;
using service::ServiceStats;
using service::VeritasService;
using util::MetricsRegistry;
using util::Tracer;

sim::SessionLog test_log(std::uint64_t seed) {
  const auto gtbw =
      trace::make_traces(trace::TraceFamily::kFccLike, 1, seed)[0];
  return core::testing::deployed_log(gtbw, 24);
}

/// True iff `text` contains the exact exposition line `line` + "\n".
bool has_line(const std::string& text, const std::string& line) {
  const std::string needle = line + "\n";
  std::size_t pos = text.find(needle);
  while (pos != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') return true;
    pos = text.find(needle, pos + 1);
  }
  return false;
}

TEST(ServiceMetrics, ExposesWorkloadCountersAndReconciles) {
  VeritasService svc(service::ServiceOptions{.num_threads = 2});
  svc.add_shard("a", core::VeritasConfig{});
  svc.add_shard("b", core::VeritasConfig{});

  // a: 2 distinct computed + 1 repeat (cache hit); b: 1 computed.
  const sim::SessionLog log0 = test_log(70);
  const sim::SessionLog log1 = test_log(71);
  for (const sim::SessionLog* log : {&log0, &log1, &log0}) {
    Query q;
    q.log = *log;
    q.shard = "a";
    svc.submit(std::move(q)).get();
  }
  {
    Query q;
    q.log = test_log(72);
    q.shard = "b";
    svc.submit(std::move(q)).get();
  }

  MetricsRegistry registry;
  svc.register_metrics(registry);
  const std::string text = registry.expose();

  // Service-level outcome counters match the stats the workload implies.
  EXPECT_TRUE(has_line(text, "veritas_queries_submitted_total 4"));
  EXPECT_TRUE(has_line(text, "veritas_queries_total{outcome=\"computed\"} 3"));
  EXPECT_TRUE(has_line(text, "veritas_queries_total{outcome=\"cache_hit\"} 1"));
  EXPECT_TRUE(has_line(text, "veritas_queries_total{outcome=\"rejected\"} 0"));
  EXPECT_TRUE(has_line(text, "veritas_queries_total{outcome=\"failed\"} 0"));
  EXPECT_TRUE(has_line(text, "veritas_result_cache_misses_total 3"));

  // Satellite 2: the reconciliation invariant as a self-check gauge —
  // submitted == computed + cache_hits + rejected + failed, so the drift
  // gauge reads exactly 0 at quiescence.
  EXPECT_TRUE(has_line(text, "veritas_unreconciled_queries 0"));
  ASSERT_TRUE(svc.stats().reconciled());

  // Queue depth gauge, drained.
  EXPECT_TRUE(has_line(text, "veritas_queue_depth 0"));

  // Per-shard series carry the shard label and slice the totals.
  EXPECT_TRUE(has_line(text, "veritas_shard_submitted_total{shard=\"a\"} 3"));
  EXPECT_TRUE(has_line(text, "veritas_shard_submitted_total{shard=\"b\"} 1"));
  EXPECT_TRUE(has_line(
      text, "veritas_shard_queries_total{shard=\"a\",outcome=\"computed\"} 2"));
  EXPECT_TRUE(has_line(
      text,
      "veritas_shard_queries_total{shard=\"a\",outcome=\"cache_hit\"} 1"));
  EXPECT_TRUE(has_line(text, "veritas_shard_in_flight{shard=\"a\"} 0"));

  // Compute-latency histogram: only computed queries are timed.
  EXPECT_TRUE(has_line(text, "veritas_compute_latency_us_count 3"));
  EXPECT_NE(text.find("veritas_compute_latency_us_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(
      text.find("veritas_shard_compute_latency_us_count{shard=\"a\"} 2"),
      std::string::npos);

  // Build info: one constant series with the resolved kernel tier.
  EXPECT_NE(text.find(std::string("veritas_build_info{kernels=\"") +
                      math::simd_kernels::backend_name() + "\""),
            std::string::npos);

  // Estimator-cache families are registered (series appear per shard
  // with an engine-level cache attached).
  EXPECT_NE(text.find("# TYPE veritas_estimator_cache_events_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE veritas_estimator_cache_entries gauge"),
            std::string::npos);
}

TEST(ServiceMetrics, ScrapeIsLiveAcrossSubsequentWork) {
  VeritasService svc(service::ServiceOptions{.num_threads = 1});
  svc.add_shard("a", core::VeritasConfig{});
  MetricsRegistry registry;
  svc.register_metrics(registry);
  EXPECT_TRUE(
      has_line(registry.expose(), "veritas_queries_submitted_total 0"));
  {
    Query q;
    q.log = test_log(80);
    q.shard = "a";
    svc.submit(std::move(q)).get();
  }
  // Same registry, no re-registration: the collectors read live state.
  EXPECT_TRUE(
      has_line(registry.expose(), "veritas_queries_submitted_total 1"));
}

#if !defined(VERITAS_TRACING_DISABLED)
// End-to-end span reconciliation: with tracing on, a computed query
// leaves a root service.execute span whose duration bounds every engine
// phase recorded under the same query id, and the engine phases nest
// inside engine.infer.
TEST(ServiceMetrics, TraceSpansReconcileWithQueryLatency) {
  Tracer::clear();
  Tracer::set_enabled(true);
  {
    VeritasService svc(service::ServiceOptions{.num_threads = 1});
    svc.add_shard("a", core::VeritasConfig{});
    Query q;
    q.log = test_log(90);
    q.shard = "a";
    svc.submit(std::move(q)).get();
  }
  Tracer::set_enabled(false);

  const std::vector<Tracer::Event> events = Tracer::events();
  ASSERT_FALSE(events.empty());

  // The one computed query got trace id 1.
  const Tracer::Event* execute = nullptr;
  const Tracer::Event* infer = nullptr;
  std::uint64_t ehmm_total_ns = 0;
  bool saw_queue_wait = false;
  bool saw_admit = false;
  for (const Tracer::Event& event : events) {
    if (event.query_id != 1) continue;
    const std::string name = event.name;
    if (name == "service.execute") {
      EXPECT_TRUE(event.root);
      execute = &event;
    } else if (name == "engine.infer") {
      infer = &event;
    } else if (name == "service.queue_wait") {
      saw_queue_wait = true;
    } else if (name == "service.admit") {
      saw_admit = true;
    } else if (name.rfind("ehmm.", 0) == 0) {
      ehmm_total_ns += event.duration_ns;
    }
  }
  ASSERT_NE(execute, nullptr);
  ASSERT_NE(infer, nullptr);
  EXPECT_TRUE(saw_admit);
  EXPECT_TRUE(saw_queue_wait);

  // Nesting: the engine pass fits inside the root span, and the
  // sequential ehmm phases sum to no more than the engine pass.
  EXPECT_LE(infer->duration_ns, execute->duration_ns);
  EXPECT_GT(ehmm_total_ns, 0u);
  EXPECT_LE(ehmm_total_ns, infer->duration_ns);
  EXPECT_GE(infer->start_ns, execute->start_ns);
  EXPECT_LE(infer->start_ns + infer->duration_ns,
            execute->start_ns + execute->duration_ns);

  Tracer::clear();
}

// With tracing enabled the build-info series says so.
TEST(ServiceMetrics, BuildInfoReportsTracingState) {
  VeritasService svc(service::ServiceOptions{.num_threads = 1});
  MetricsRegistry registry;
  svc.register_metrics(registry);
  EXPECT_NE(registry.expose().find("tracing=\"on\""), std::string::npos);
}
#else
TEST(ServiceMetrics, BuildInfoReportsTracingState) {
  VeritasService svc(service::ServiceOptions{.num_threads = 1});
  MetricsRegistry registry;
  svc.register_metrics(registry);
  EXPECT_NE(registry.expose().find("tracing=\"off\""), std::string::npos);
}
#endif

}  // namespace
