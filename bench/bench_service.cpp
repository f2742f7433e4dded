// Service-layer bench: mixed-shard async throughput, cold vs warm cache.
//
// Workload: N recorded sessions split across two shards (different model
// configurations), submitted as async queries. The cold round computes
// every abduction; the warm round replays the identical workload and
// must be served from the result cache — the headline number is the
// warm/cold speedup (acceptance: >= 5x). A determinism cross-check
// compares every payload against the direct single-threaded
// InferenceEngine path at each lane count.
//
// Usage: bench_service [--sessions N] [--repeat R] [--json PATH]
// The optional JSON snapshot feeds tools/run_bench.sh (BENCH_6.json).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <string>
#include <vector>

#include "abr/abr_factory.hpp"
#include "core/inference_engine.hpp"
#include "net/network_path.hpp"
#include "service/veritas_service.hpp"
#include "sim/session.hpp"
#include "trace/trace_generator.hpp"
#include "util/thread_pool.hpp"
#include "video/ladder_presets.hpp"
#include "math/simd_kernels.hpp"

namespace {

using namespace veritas;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<sim::SessionLog> make_logs(std::size_t count) {
  const auto traces =
      trace::make_traces(trace::TraceFamily::kFccLike, count, 2024);
  const video::Video video(video::default_video_config());
  std::vector<sim::SessionLog> logs;
  logs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto abr = abr::make_abr(i % 2 == 0 ? "mpc" : "bba");
    const net::NetworkPath path(traces[i], 0.08);
    logs.push_back(sim::run_session(video, *abr, path).log);
  }
  return logs;
}

core::VeritasConfig shard_a_config() { return core::VeritasConfig{}; }

core::VeritasConfig shard_b_config() {
  core::VeritasConfig cfg;
  cfg.sigma_mbps = 0.25;  // a second deployment's model
  return cfg;
}

const char* shard_for(std::size_t i) { return i % 2 == 0 ? "a" : "b"; }

/// Submits the whole mixed-shard workload and blocks on every future.
/// Returns the wall seconds and whether every result was a cache hit.
struct RoundResult {
  double wall_s = 0.0;
  bool all_hits = true;
  std::vector<service::InferenceResult> results;
};

RoundResult run_round(service::VeritasService& service,
                      const std::vector<sim::SessionLog>& logs) {
  RoundResult round;
  const auto start = Clock::now();
  std::vector<std::future<Expected<service::InferenceResult>>> futures;
  futures.reserve(logs.size());
  for (std::size_t i = 0; i < logs.size(); ++i) {
    service::Query query;
    query.log = logs[i];
    query.shard = shard_for(i);
    futures.push_back(service.submit(std::move(query)));
  }
  round.results.reserve(futures.size());
  for (auto& future : futures) {
    // The happy path must actually be happy: value() throws on any
    // serving error, which fails the bench loudly.
    round.results.push_back(future.get().value());
  }
  round.wall_s = seconds_since(start);
  for (const auto& result : round.results) round.all_hits &= result.cache_hit;
  return round;
}

bool payloads_identical(const service::InferenceResult& a,
                        const core::VeritasResult& b) {
  const core::VeritasResult& r = *a.abduction;
  if (r.log_likelihood != b.log_likelihood) return false;
  if (r.map_states_mbps != b.map_states_mbps) return false;
  if (r.samples.size() != b.samples.size()) return false;
  for (std::size_t s = 0; s < r.samples.size(); ++s) {
    const auto va = r.samples[s].values_mbps();
    const auto vb = b.samples[s].values_mbps();
    if (va.size() != vb.size() ||
        !std::equal(va.begin(), va.end(), vb.begin())) {
      return false;
    }
  }
  return true;
}

struct LanePoint {
  std::size_t threads = 0;
  double cold_sessions_per_sec = 0.0;
  double warm_sessions_per_sec = 0.0;
  double warm_speedup = 0.0;
  bool deterministic = true;
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t sessions = 64;
  int repeat = 3;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sessions") == 0 && i + 1 < argc) {
      sessions = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--sessions N] [--repeat R] [--json PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf("== service bench (mixed-shard async, cold vs warm) ==\n");
  std::printf("generating %zu sessions...\n", sessions);
  const std::vector<sim::SessionLog> logs = make_logs(sessions);

  // Ground truth for the determinism cross-check.
  const core::InferenceEngine engine_a{shard_a_config()};
  const core::InferenceEngine engine_b{shard_b_config()};
  std::vector<core::VeritasResult> expected;
  expected.reserve(logs.size());
  for (std::size_t i = 0; i < logs.size(); ++i) {
    expected.push_back((i % 2 == 0 ? engine_a : engine_b).infer(logs[i]));
  }

  std::vector<std::size_t> thread_counts{1, 2, 4};
  const std::size_t hw = util::ThreadPool::hardware_threads();
  if (hw > 4) thread_counts.push_back(hw);

  std::printf("\n%8s %16s %16s %12s %8s\n", "lanes", "cold sess/sec",
              "warm sess/sec", "warm/cold", "exact");
  std::vector<LanePoint> points;
  bool deterministic = true;
  for (const std::size_t threads : thread_counts) {
    LanePoint point;
    point.threads = threads;
    double best_cold = 0.0;
    double best_warm = 0.0;
    for (int r = 0; r < repeat; ++r) {
      // Fresh service per measurement: the cold round really is cold.
      service::ServiceOptions options;
      options.num_threads = threads;
      options.cache_capacity = 2 * sessions;
      // One LRU shard: the all-hits warm-round gate must not depend on
      // how keys happen to distribute over sharded slices.
      options.cache_shards = 1;
      service::VeritasService service(options);
      service.add_shard("a", shard_a_config());
      service.add_shard("b", shard_b_config());

      const RoundResult cold = run_round(service, logs);
      const RoundResult warm = run_round(service, logs);
      best_cold = std::max(best_cold, double(sessions) / cold.wall_s);
      best_warm = std::max(best_warm, double(sessions) / warm.wall_s);
      if (r == 0) {
        for (std::size_t i = 0; i < logs.size(); ++i) {
          point.deterministic &= payloads_identical(cold.results[i],
                                                    expected[i]);
          point.deterministic &= payloads_identical(warm.results[i],
                                                    expected[i]);
        }
        point.deterministic &= !cold.all_hits && warm.all_hits;
        const service::ServiceStats stats = service.stats();
        point.deterministic &= stats.cache_hits == sessions &&
                               stats.cache_misses == sessions;
      }
    }
    point.cold_sessions_per_sec = best_cold;
    point.warm_sessions_per_sec = best_warm;
    point.warm_speedup = best_warm / best_cold;
    deterministic &= point.deterministic;
    points.push_back(point);
    std::printf("%8zu %16.1f %16.1f %11.1fx %8s\n", threads, best_cold,
                best_warm, point.warm_speedup,
                point.deterministic ? "yes" : "NO");
  }

  const LanePoint& headline = points.back();
  std::printf("\nwarm cache replay: %.1fx faster than cold at %zu lanes "
              "(acceptance: >= 5x)\n",
              headline.warm_speedup, headline.threads);
  std::printf("payloads identical to direct engine path: %s\n",
              deterministic ? "yes" : "NO (BUG)");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n"
        << "  \"bench\": \"bench_service\",\n"
        << "  \"kernels\": \""
        << veritas::math::simd_kernels::backend_name() << "\",\n"
        << "  \"sessions\": " << sessions << ",\n"
        << "  \"shards\": 2,\n"
        << "  \"hardware_threads\": " << hw << ",\n"
        << "  \"lanes\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
      out << "    {\"threads\": " << points[i].threads
          << ", \"cold_sessions_per_sec\": " << points[i].cold_sessions_per_sec
          << ", \"warm_sessions_per_sec\": " << points[i].warm_sessions_per_sec
          << ", \"warm_speedup\": " << points[i].warm_speedup << "}"
          << (i + 1 < points.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"warm_speedup\": " << headline.warm_speedup << ",\n"
        << "  \"deterministic_vs_direct_engine\": "
        << (deterministic ? "true" : "false") << "\n"
        << "}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return deterministic ? 0 : 1;
}
