// service_fleet: an open-loop fleet of abduction and interventional
// queries through VeritasService — the only workload in which the
// service layer, cross-session estimator-cache reuse and interventional
// prediction do work.
//
// Traffic: a fixed arrival rate over two shards ("a": paper defaults,
// "b": sigma = 0.25), all kBatch with no deadline, so any outcome other
// than ok is a bug. The mix is first-time kAbduction queries, repeats of
// the same (log, seed) as a what-if sweep sends them, and
// kPredictSequence queries, in the shares of the repository's own paper
// figure benches (see kSweepSettings). The distinct (log, seed) pairs
// outnumber the result cache, so eviction runs. One client thread both
// generates and collects; every turnaround is timed from the query's due
// time.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/veritas.hpp"
#include "inputs.hpp"
#include "pipeline.hpp"
#include "service/veritas_service.hpp"
#include "util/expects.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace veritas;

namespace {

// The fleet's fixed shape. The rate is about a quarter of the capacity
// of two lanes measured at the parent on the 4-CPU reference host with
// a mix that computed three queries in four (this one computes fewer
// than one in three), so the backlog stays bounded; lanes plus the
// client leave a CPU spare.
constexpr double kRatePerS = 1200.0;
constexpr std::size_t kLanes = 2;
constexpr std::size_t kClientThreads = 1;
/// Distinct logs synthesized. Every first-time abduction also draws a
/// fresh seed, so the distinct (log, seed) pairs grow with the run and
/// outnumber the service's default 1024 result-cache entries after about
/// four seconds.
constexpr std::size_t kPoolLogs = 512;

// The mix of one pass of the paper-figure benches in bench/. What-if
// queries: Figs. 9, 10, 11 and 13 each ask one setting of the same 40
// (log, seed) pairs, and Fig. 14 asks four settings (BBA, BOLA, 30 s
// buffer, high ladder) of 25 pairs, one pass over its logs per setting.
// Each pair is abducted once and repeated for every further setting, so
// 3 of 4 abductions repeat a pair asked one pass earlier. Fig. 12 asks
// 13 predict_sequence queries (its random-ABR test sessions) against
// those 4 * 40 + 4 * 25 = 260 what-ifs.
constexpr std::size_t kSweepLogs = 25;     ///< Fig. 14's logs per pass
constexpr std::size_t kSweepSettings = 4;  ///< what-ifs asked per log
constexpr double kPredictShare = 13.0 / (13.0 + 260.0);

/// The abduction tail sits in the computed quarter of abductions, above
/// the three quarters that are result-cache hits. Above p90 it measured
/// the shared virtual host this was tuned on rather than the service: a
/// 1 ms sleep there overshoots by over 2 ms in about 0.8% of cases (up to
/// 25 ms), and busy periods stall the lanes and the client for
/// milliseconds.
constexpr double kTailP = 90.0;
/// Tail windows: one second each in a 30 s run. The host's hiccups come
/// in bursts, and the median window sits outside them.
constexpr std::size_t kServiceTailWindows = 30;
constexpr std::size_t kCheckEvery = 512;   ///< payloads checked bit for bit
constexpr std::size_t kWarmupQueries = 48;  ///< one burst over the lanes

std::string shard_of(std::size_t log) { return log % 2 == 0 ? "a" : "b"; }

core::VeritasConfig shard_config(const char* shard) {
  core::VeritasConfig config;
  if (shard[0] == 'b') config.sigma_mbps = 0.25;
  return config;
}

struct Planned {
  std::size_t log = 0;
  service::QueryKind kind = service::QueryKind::kAbduction;
  std::uint64_t seed_xor = 0;
};

/// The whole arrival sequence, drawn from the seed before timing starts:
/// sweeps of kSweepSettings passes over kSweepLogs new (log, seed) pairs,
/// with kPredictSequence queries interleaved at random.
std::vector<Planned> plan_queries(std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed ^ 0xf1ee7ULL);
  std::vector<Planned> plan(count);
  std::vector<Planned> sweep;  // the current sweep's pairs
  std::size_t asked = 0;       // abductions asked in the current sweep
  std::size_t next_abduction = 0;
  std::size_t next_predict = kPoolLogs / 2;
  for (std::size_t j = 0; j < count; ++j) {
    Planned& q = plan[j];
    if (rng.uniform() < kPredictShare) {
      q.kind = service::QueryKind::kPredictSequence;
      q.log = next_predict++ % kPoolLogs;
      continue;
    }
    if (asked == kSweepLogs * kSweepSettings) {
      sweep.clear();
      asked = 0;
    }
    if (asked < kSweepLogs) {
      q.log = next_abduction++ % kPoolLogs;
      q.seed_xor = query_seed(seed, j);
      sweep.push_back(q);
    } else {
      q = sweep[asked % kSweepLogs];
    }
    ++asked;
  }
  return plan;
}

std::unique_ptr<service::VeritasService> make_service() {
  service::ServiceOptions options;  // default result-cache capacity
  options.num_threads = kLanes;
  auto s = std::make_unique<service::VeritasService>(options);
  s->add_shard("a", shard_config("a"));
  s->add_shard("b", shard_config("b"));
  return s;
}

service::Query make_query(const Planned& q,
                          const std::vector<sim::SessionLog>& logs) {
  service::Query query;
  query.log = logs[q.log];
  query.shard = shard_of(q.log);
  query.kind = q.kind;
  if (q.kind == service::QueryKind::kAbduction) query.seed_xor = q.seed_xor;
  return query;
}

/// Builds the service kSetupRepeats times (two shard engines, lanes, a
/// burst of warm-up queries); returns the median seconds and keeps the
/// last.
double set_up(std::unique_ptr<service::VeritasService>& kept,
              const std::vector<sim::SessionLog>& logs, std::uint64_t seed) {
  std::vector<double> seconds;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<service::VeritasService> s = make_service();
    std::vector<std::future<Expected<service::InferenceResult>>> warm;
    for (std::size_t w = 0; w < kWarmupQueries; ++w) {
      Planned q;
      q.log = w;
      q.kind = w % 2 == 0 ? service::QueryKind::kAbduction
                          : service::QueryKind::kPredictSequence;
      q.seed_xor = query_seed(~seed, w);
      warm.push_back(s->submit(make_query(q, logs)));
    }
    for (auto& f : warm) f.get().value();
    seconds.push_back(us_between(t0, Clock::now()) * 1e-6);
    kept = std::move(s);
  }
  return median(seconds);
}

struct Completed {
  std::size_t j = 0;
  double turnaround_ms = 0.0;   ///< due time -> result observed
  double after_submit_ms = 0.0; ///< submit() returned -> result observed
  bool hit = false;             ///< resolved inside submit()
  bool ok = false;
};

struct Window {
  std::vector<Completed> done;
  std::vector<double> lateness_ms;  ///< submit start - due time
  double submit_us = 0.0;           ///< summed time inside submit()
  std::size_t queue_depth_max = 0;
  double sampling_us = 0.0;         ///< summed time reading queue depth
  double elapsed_s = 0.0;           ///< first due time -> last completion
  /// Payloads of every kCheckEvery-th query, for the bit-for-bit gate.
  std::vector<std::pair<std::size_t, service::InferenceResult>> checked;
};

/// Runs the plan open loop at kRatePerS. The single client thread
/// submits each query at its due time and, between arrivals, spins over
/// the outstanding futures to timestamp each completion. It never sleeps:
/// on the virtual host this was tuned on, waking a sleeping thread took
/// up to 30 ms at times, and every query due meanwhile was charged the
/// generator's lateness. With `sample_depth` it also reads the queue
/// depth once a millisecond, timing those reads.
Window open_loop(service::VeritasService& svc, const std::vector<Planned>& plan,
                 const std::vector<sim::SessionLog>& logs, bool sample_depth) {
  struct Outstanding {
    std::size_t j;
    Clock::time_point submitted;
    std::future<Expected<service::InferenceResult>> future;
  };
  Window w;
  std::deque<Outstanding> outstanding;
  const Clock::time_point start = Clock::now();
  const OpenLoopSchedule schedule(start, kRatePerS);
  Clock::time_point last_completion = start;

  auto finish = [&](std::size_t j, Clock::time_point submitted,
                    std::future<Expected<service::InferenceResult>>& f,
                    Clock::time_point at, bool hit) {
    Expected<service::InferenceResult> r = f.get();
    Completed c;
    c.j = j;
    c.turnaround_ms = schedule.ms_since_due(j, at);
    c.after_submit_ms = us_between(submitted, at) * 1e-3;
    c.hit = hit;
    c.ok = r.ok();
    if (c.ok && j % kCheckEvery == 0) w.checked.emplace_back(j, r.value());
    w.done.push_back(c);
    last_completion = std::max(last_completion, at);
  };

  const std::size_t last = plan.size();
  std::size_t next = 0;
  // The next query is built (its log copied) as soon as the previous one
  // is out, so the copy is not charged to the next query's lateness.
  std::optional<service::Query> prepared;
  Clock::time_point next_depth_sample = start;
  while (next < last || !outstanding.empty()) {
    if (!prepared && next < last) prepared = make_query(plan[next], logs);
    Clock::time_point now = Clock::now();
    if (next < last && now >= schedule.due(next)) {
      w.lateness_ms.push_back(schedule.ms_since_due(next, now));
      const Clock::time_point s0 = Clock::now();
      auto future = svc.submit(std::move(*prepared));
      prepared.reset();
      const Clock::time_point s1 = Clock::now();
      w.submit_us += us_between(s0, s1);
      if (future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        finish(next, s1, future, s1, true);
      } else {
        outstanding.push_back({next, s1, std::move(future)});
      }
      ++next;
      continue;
    }
    if (sample_depth && now >= next_depth_sample) {
      w.queue_depth_max = std::max(w.queue_depth_max, svc.stats().queue_depth);
      next_depth_sample = now + std::chrono::milliseconds(1);
      w.sampling_us += us_between(now, Clock::now());
    }
    for (auto it = outstanding.begin(); it != outstanding.end();) {
      if (it->future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        finish(it->j, it->submitted, it->future, now, false);
        it = outstanding.erase(it);
      } else {
        ++it;
      }
    }
  }
  w.elapsed_s = us_between(start, last_completion) * 1e-6;
  return w;
}

struct Latencies {
  std::vector<double> abduction_ms;
  std::vector<double> abduction_after_submit_ms;
  std::vector<double> predict_ms;
  std::vector<double> computed_after_submit_ms;
  std::size_t ok = 0;
};

/// The value of an unlabelled series in Prometheus text exposition.
double series_value(const std::string& exposition, const std::string& name) {
  const std::size_t at = exposition.find("\n" + name + " ");
  VERITAS_EXPECTS(at != std::string::npos);
  return std::stod(exposition.substr(at + name.size() + 2));
}

Latencies split_latencies(const Window& w, const std::vector<Planned>& plan) {
  Latencies l;
  for (const Completed& c : w.done) {
    if (c.ok) ++l.ok;
    if (plan[c.j].kind == service::QueryKind::kAbduction) {
      l.abduction_ms.push_back(c.turnaround_ms);
      l.abduction_after_submit_ms.push_back(c.after_submit_ms);
    } else {
      l.predict_ms.push_back(c.turnaround_ms);
    }
    if (!c.hit) l.computed_after_submit_ms.push_back(c.after_submit_ms);
  }
  return l;
}

/// Direct single-threaded answers for the checked payloads, timed: the
/// service's payloads must match them bit for bit.
struct DirectCheck {
  std::size_t compared = 0;
  std::size_t mismatched = 0;
  bool finite = true;
  double infer_us = 0.0;
  std::size_t infers = 0;
  double predict_us = 0.0;
  std::size_t predicts = 0;
  CoreSplit split;  ///< summed over the `infers` abductions
  double build_us = 0.0;
};

DirectCheck check_payloads(const Window& w, const std::vector<Planned>& plan,
                           const std::vector<sim::SessionLog>& logs) {
  DirectCheck d;
  const Clock::time_point b0 = Clock::now();
  const auto engine_a =
      std::make_shared<const core::InferenceEngine>(shard_config("a"));
  const auto engine_b =
      std::make_shared<const core::InferenceEngine>(shard_config("b"));
  d.build_us = us_between(b0, Clock::now()) / 2;
  core::Ehmm::Scratch scratch;
  for (const auto& [j, result] : w.checked) {
    const Planned& q = plan[j];
    const auto& engine = shard_of(q.log)[0] == 'a' ? engine_a : engine_b;
    const sim::SessionLog& log = logs[q.log];
    ++d.compared;
    if (q.kind == service::QueryKind::kAbduction) {
      const Clock::time_point t0 = Clock::now();
      const core::VeritasResult direct = engine->infer_with_seed(
          log, scratch, engine->config().seed ^ q.seed_xor);
      d.infer_us += us_between(t0, Clock::now());
      ++d.infers;
      if (result.abduction == nullptr ||
          digest(*result.abduction) != digest(direct)) {
        ++d.mismatched;
      } else {
        d.finite = d.finite && all_finite(direct);
      }
      core::VeritasConfig config = engine->config();
      config.seed ^= q.seed_xor;
      d.split += core_split(engine->ehmm(), log, config);
    } else {
      const Clock::time_point t0 = Clock::now();
      const std::vector<core::NextChunkPrediction> direct =
          core::Veritas(engine).predict_sequence(log);
      d.predict_us += us_between(t0, Clock::now());
      ++d.predicts;
      bool same = result.predictions != nullptr &&
                  result.predictions->size() == direct.size();
      for (std::size_t n = 0; same && n < direct.size(); ++n) {
        const core::NextChunkPrediction& served = (*result.predictions)[n];
        same = served.expected_gtbw_mbps == direct[n].expected_gtbw_mbps &&
               served.throughput_mbps == direct[n].throughput_mbps &&
               served.download_time_s == direct[n].download_time_s;
      }
      if (!same) ++d.mismatched;
    }
  }
  return d;
}

/// Fidelity pass through the service: the fixed Fig. 9 panel abducted on
/// shard "a" (paper defaults), then replayed under BBA step by step.
struct PanelScore {
  FidelityTally tally;
  ReplayTimes replay;
  bool finite = true;
};

PanelScore panel_pass(service::VeritasService& svc, std::size_t threads) {
  const std::vector<DeployedSession> panel =
      deploy_sessions(kPanelSize, kPanelSeed, threads);
  const video::Video video = make_video();
  const query::Setting setting = fidelity_setting();
  std::vector<std::shared_ptr<const core::VeritasResult>> abductions;
  std::vector<sim::SessionLog> logs;
  for (std::size_t i = 0; i < panel.size(); ++i) {
    logs.push_back(sim::session_log_from_csv(panel[i].csv));
    service::Query query;
    query.log = logs.back();
    query.shard = std::string("a");
    query.seed_xor = query_seed(kPanelSeed, i);
    abductions.push_back(svc.submit(std::move(query)).get().value().abduction);
  }
  std::vector<query::WhatIfPrediction> answers(panel.size());
  std::vector<sim::QoeMetrics> oracles(panel.size());
  std::vector<ReplayTimes> times(threads);
  util::ThreadPool pool(threads > 1 ? threads - 1 : 0);
  pool.parallel_for(panel.size(), [&](std::size_t lane, std::size_t i) {
    const std::uint64_t qseed = query_seed(kPanelSeed, i);
    answers[i] = replay_whatif(*abductions[i], logs[i], video, setting, kRttS,
                               qseed, &times[lane]);
    oracles[i] = query::run_under_setting(panel[i].ground_truth, video,
                                          setting, kRttS, qseed);
  });
  PanelScore score;
  for (const ReplayTimes& t : times) score.replay += t;
  for (std::size_t i = 0; i < panel.size(); ++i) {
    score.finite = score.finite && all_finite(answers[i]) &&
                   all_finite(*abductions[i]);
    score.tally.add_answer(answers[i], oracles[i]);
    score.tally.add_posterior(*abductions[i], logs[i], panel[i].ground_truth);
  }
  return score;
}

}  // namespace

Report run_service_fleet(const RunOptions& options) {
  Report report(options.workload);
  report.context("lanes", static_cast<double>(kLanes));
  report.context("client_threads", static_cast<double>(kClientThreads));
  report.context("rate_per_s", kRatePerS);
  report.context("pool_logs", static_cast<double>(kPoolLogs));
  report.context("result_cache_entries",
                 static_cast<double>(service::ServiceOptions{}.cache_capacity));
  report.context("predict_share", kPredictShare);
  report.context("repeat_share_of_abductions",
                 1.0 - 1.0 / static_cast<double>(kSweepSettings));
  if (kLanes + kClientThreads > options.nproc) {
    std::fprintf(stderr,
                 "service_fleet needs %zu lanes + %zu client threads, but "
                 "only %zu CPUs are available\n",
                 kLanes, kClientThreads, options.nproc);
    report.gate("threads_within_nproc", false);
    return report;
  }

  // Inputs arrive as CSV; parsing them happens before the clock starts
  // and is timed only for the per-layer split.
  std::vector<DeployedSession> pool =
      deploy_sessions(kPoolLogs, options.seed, options.nproc);
  std::vector<sim::SessionLog> logs;
  logs.reserve(pool.size());
  double parse_us = 0.0;
  double parse_bytes = 0.0;
  for (DeployedSession& s : pool) {
    const Clock::time_point t0 = Clock::now();
    logs.push_back(sim::session_log_from_csv(s.csv));
    parse_us += us_between(t0, Clock::now());
    parse_bytes += static_cast<double>(s.csv.size());
  }
  pool.clear();
  pool.shrink_to_fit();
  const std::vector<Planned> plan = plan_queries(
      static_cast<std::size_t>(kRatePerS * options.seconds), options.seed);
  reset_peak_rss(report);

  std::unique_ptr<service::VeritasService> svc;
  const double setup_s = set_up(svc, logs, options.seed);

  // The traced run is the same open loop, also sampling queue depth.
  const Window w = open_loop(*svc, plan, logs, options.trace);
  const double peak_mb = peak_rss_mb();  // before the checks and panel
  const Latencies l = split_latencies(w, plan);
  report.count(w.done.size(), w.done.size() - l.ok);
  report.gate("all_queries_ok", l.ok == w.done.size() && !w.done.empty(),
              format("%zu not ok", w.done.size() - l.ok));
  const DirectCheck d = check_payloads(w, plan, logs);
  report.gate("payloads_match_direct_path",
              d.compared > 0 && d.mismatched == 0,
              format("%zu of %zu differ", d.mismatched, d.compared));
  report.gate("payloads_finite", d.finite);
  const PanelScore panel = panel_pass(*svc, options.nproc);
  report.gate("panel_finite", panel.finite);
  const service::ServiceStats stats = svc->stats();
  report.gate("service_stats_reconciled", stats.reconciled());

  if (!options.trace) {
    report.end_to_end("queries_per_s",
                      static_cast<double>(w.done.size()) / w.elapsed_s, "1/s",
                      format("open loop at %g/s", kRatePerS));
    report.end_to_end("goodput_per_s", static_cast<double>(l.ok) / w.elapsed_s,
                      "1/s");
    report.end_to_end("latency_p50_ms", percentile(l.abduction_ms, 50.0), "ms",
                      format("kAbduction from due time, n=%zu",
                             l.abduction_ms.size()));
    report.end_to_end(
        "latency_tail_ms",
        windowed_percentile(l.abduction_ms, kTailP, kServiceTailWindows), "ms",
        tail_note(kTailP, l.abduction_ms.size(), kServiceTailWindows));
    report.end_to_end("predict_p50_ms", percentile(l.predict_ms, 50.0), "ms",
                      format("kPredictSequence, n=%zu", l.predict_ms.size()));
    report.end_to_end("setup_s", setup_s, "s",
                      format("median of %d", kSetupRepeats));
    report.end_to_end("peak_rss_mb", peak_mb, "MiB",
                      "set-up and open loop, inputs included");
    report_fidelity(report, panel.tally);
    report.context("failed_share", static_cast<double>(w.done.size() - l.ok) /
                                       static_cast<double>(w.done.size()));
    report.context("tail_from_submit_ms",
                   windowed_percentile(l.abduction_after_submit_ms, kTailP,
                                       kServiceTailWindows));
    report.context("generator_lateness_p99_ms", percentile(w.lateness_ms, 99));
    report.context("generator_lateness_max_ms", percentile(w.lateness_ms, 100));
    report.context("result_cache_hits", static_cast<double>(stats.cache_hits));
    report.context("result_cache_evictions",
                   static_cast<double>(stats.cache_evictions));
    return report;
  }

  // Compute time per query comes from the service's own instruments: the
  // exact mean from the exported compute-latency histogram, and the
  // shards' p50 (a power-of-two bucket bound, so ~2x resolution).
  util::MetricsRegistry registry;
  svc->register_metrics(registry);
  const std::string exposition = registry.expose();
  const double compute_mean_us =
      series_value(exposition, "veritas_compute_latency_us_sum") /
      series_value(exposition, "veritas_compute_latency_us_count");
  double compute_p50_us = 0.0;
  std::uint64_t computed = 0;
  for (const service::ShardStats& s : svc->shard_stats()) {
    compute_p50_us += s.latency_p50_us * static_cast<double>(s.latency_count);
    computed += s.latency_count;
  }
  compute_p50_us /= static_cast<double>(std::max<std::uint64_t>(computed, 1));
  std::uint64_t est_hits = 0;
  std::uint64_t est_lookups = 0;
  for (const char* shard : {"a", "b"}) {
    const core::EstimatorCache::Stats s =
        svc->shard_engine(shard)->estimator_cache()->stats();
    est_hits += s.hits;
    est_lookups += s.hits + s.misses;
  }

  const auto per = [](double total, std::size_t n) {
    return total / static_cast<double>(std::max<std::size_t>(n, 1));
  };
  report.layer("sim.parse_us", per(parse_us, logs.size()), "us",
               "fleet CSV parsed before the clock starts");
  report.layer("sim.parse_mb_per_s", parse_bytes / parse_us, "MB/s");
  report.layer("core.engine_build_us", d.build_us, "us", "set-up only");
  report.layer("core.infer_us", per(d.infer_us, d.infers), "us",
               "direct infer_with_seed on checked payloads");
  report.layer("core.emissions_us", per(d.split.emissions_us, d.infers), "us",
               "split probe");
  report.layer("core.viterbi_us", per(d.split.viterbi_us, d.infers), "us",
               "split probe");
  report.layer("core.forward_backward_us",
               per(d.split.forward_backward_us, d.infers), "us",
               "split probe");
  report.layer("core.sampling_us", per(d.split.sampling_us, d.infers), "us",
               "split probe");
  report.layer("core.predict_sequence_us", per(d.predict_us, d.predicts), "us",
               "direct predict_sequence on checked payloads");
  report.layer("core.estimator_cache_hit_ratio",
               est_lookups == 0 ? 0.0
                                : static_cast<double>(est_hits) /
                                      static_cast<double>(est_lookups),
               "share",
               format("%llu lookups, warm across sessions",
                      static_cast<unsigned long long>(est_lookups)));
  report.layer("query.baseline_us", per(panel.replay.baseline_us, kPanelSize),
               "us", "fidelity pass");
  report.layer("query.replay_us",
               per(panel.replay.replay_us, panel.replay.replays), "us",
               "per replay, fidelity pass");
  report.layer("query.replays_per_query",
               static_cast<double>(panel.replay.replays) / kPanelSize, "count");
  report.layer("query.bracket_us", per(panel.replay.bracket_us, kPanelSize),
               "us", "fidelity pass");

  report.layer("service.submit_us", per(w.submit_us, w.done.size()), "us");
  report.layer("service.queue_wait_us",
               mean(l.computed_after_submit_ms) * 1e3 - compute_mean_us, "us",
               "mean turnaround after submit minus mean compute");
  report.layer("service.compute_mean_us", compute_mean_us, "us",
               "exported compute-latency histogram");
  report.layer("service.compute_p50_us", compute_p50_us, "us",
               format("%llu computed, power-of-two buckets",
                      static_cast<unsigned long long>(computed)));
  report.layer("service.cache_hit_ratio",
               static_cast<double>(stats.cache_hits) /
                   static_cast<double>(std::max<std::uint64_t>(stats.submitted,
                                                               1)),
               "share",
               format("%llu submitted",
                      static_cast<unsigned long long>(stats.submitted)));
  report.layer("service.queue_depth_max",
               static_cast<double>(w.queue_depth_max), "count");
  report.layer("service.generator_lateness_ms", percentile(w.lateness_ms, 99),
               "ms", "p99");

  // The service is timed from outside only; what tracing adds to this run
  // is the client's queue-depth reads.
  const double p50_us = percentile(l.abduction_ms, 50.0) * 1e3;
  const double overhead_us = per(w.sampling_us, w.done.size());
  report.context("latency_p50_us", p50_us);
  report.context("tracing_overhead_us", overhead_us);
  report.context("tracing_overhead_pct", 100.0 * overhead_us / p50_us);
  return report;
}

}  // namespace perfbench
