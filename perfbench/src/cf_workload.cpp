// cf_abr_bba (paper Fig. 9, MPC -> BBA) and cf_buffer_mpc (Fig. 10,
// buffer 5 -> 30 s with MPC kept): closed-loop clients send logs as CSV
// text to a local CounterfactualEngine, the production path.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/veritas.hpp"
#include "inputs.hpp"
#include "pipeline.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace veritas;

namespace {

struct CfSpec {
  query::Setting setting;
  std::size_t pool = 0;  ///< distinct logs the clients cycle through
  double tail_p = 0.0;   ///< fixed tail percentile of this workload
};

CfSpec spec_for(const std::string& workload) {
  if (workload == "cf_abr_bba") return {fidelity_setting(), 512, 99.0};
  return {query::Setting{.abr = "mpc", .buffer_capacity_s = 30.0, .ladder = {}},
          96, 90.0};
}

/// Closed-loop clients, one per CPU of the 4-CPU reference host. On a
/// shared virtual host a lone busy thread switches between two speeds
/// about 1.5x apart many times a second; four clients keep every CPU
/// busy and give four times the samples, which roughly halved the
/// run-to-run spread of latency_p50_ms and queries_per_s there.
constexpr std::size_t kClients = 4;
constexpr std::size_t kWarmupQueries = 2;

/// Panel slice that checks a non-Fig. 9 setting step by step.
constexpr std::size_t kOwnPanelSize = 12;

/// How far the traced span may stray from its untraced twin, in percent.
/// The traced steps copy predict_whatif's pipeline; outside this band the
/// copy no longer costs what the program does (say, predict_whatif
/// stopped building an engine per query), so the per-layer split no
/// longer describes it. Measured overhead is within a few percent.
constexpr double kOverheadBandPct = 10.0;

/// One production what-if query: CSV text in, prediction out.
query::WhatIfPrediction direct_query(const query::CounterfactualEngine& engine,
                                     const video::Video& video,
                                     const std::string& csv,
                                     const query::Setting& setting,
                                     std::uint64_t seed) {
  return engine.predict_whatif(sim::session_log_from_csv(csv), video, setting,
                               seed);
}

struct Program {
  std::unique_ptr<video::Video> video;
  std::unique_ptr<query::CounterfactualEngine> engine;
};

/// Runs body(client) on kClients threads at once; rethrows the first
/// exception a client raised once every thread has joined.
template <typename Body>
void on_clients(const Body& body) {
  std::vector<std::exception_ptr> errors(kClients);
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        try {
          body(c);
        } catch (...) {
          errors[c] = std::current_exception();
        }
      });
    }
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// Sets up every client's program (video, engine, warm-up queries) at
/// once, kSetupRepeats times; returns the median per-client seconds and
/// keeps the last set-up.
double set_up(std::vector<Program>& programs,
              const std::vector<DeployedSession>& pool, const CfSpec& spec,
              std::uint64_t seed) {
  programs.resize(kClients);
  std::vector<double> seconds(kSetupRepeats * kClients);
  for (int r = 0; r < kSetupRepeats; ++r) {
    on_clients([&](std::size_t c) {
      const Clock::time_point t0 = Clock::now();
      Program p{std::make_unique<video::Video>(make_video()),
                std::make_unique<query::CounterfactualEngine>()};
      for (std::size_t w = 0; w < kWarmupQueries; ++w) {
        const std::size_t i = c * kWarmupQueries + w;
        direct_query(*p.engine, *p.video, pool[i % pool.size()].csv,
                     spec.setting, query_seed(~seed, i));
      }
      seconds[r * kClients + c] = us_between(t0, Clock::now()) * 1e-6;
      programs[c] = std::move(p);
    });
  }
  return median(seconds);
}

struct Window {
  std::vector<double> latency_ms;  ///< by query index, successes only
  std::size_t failed = 0;
  bool finite = true;
  double elapsed_s = 0.0;
};

/// The untraced closed loop. Each client takes the next query index i,
/// sends pool log i mod |pool| with its own sampling seed (so no
/// (log, seed) pair repeats), and waits for the answer.
Window closed_loop(const std::vector<Program>& programs,
                   const std::vector<DeployedSession>& pool,
                   const CfSpec& spec, std::uint64_t seed, double seconds) {
  struct Sample {
    std::size_t i = 0;
    double latency_ms = 0.0;
    bool ok = false;
  };
  std::vector<std::vector<Sample>> samples(kClients);
  std::vector<char> finite(kClients, 1);
  std::atomic<std::size_t> next{0};
  const Clock::time_point start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  on_clients([&](std::size_t c) {
    const Program& program = programs[c];
    while (Clock::now() < end) {
      const std::size_t i = next.fetch_add(1);
      const Clock::time_point t0 = Clock::now();
      try {
        const query::WhatIfPrediction p =
            direct_query(*program.engine, *program.video,
                         pool[i % pool.size()].csv, spec.setting,
                         query_seed(seed, i));
        const double ms = us_between(t0, Clock::now()) * 1e-3;
        finite[c] = finite[c] && all_finite(p);
        samples[c].push_back({i, ms, true});
      } catch (const std::exception& e) {
        std::fprintf(stderr, "query %zu failed: %s\n", i, e.what());
        samples[c].push_back({i, 0.0, false});
      }
    }
  });
  Window w;
  w.elapsed_s = us_between(start, Clock::now()) * 1e-6;
  std::vector<Sample> all;
  for (const auto& s : samples) all.insert(all.end(), s.begin(), s.end());
  std::sort(all.begin(), all.end(),
            [](const Sample& a, const Sample& b) { return a.i < b.i; });
  for (const Sample& s : all) {
    if (s.ok) {
      w.latency_ms.push_back(s.latency_ms);
    } else {
      ++w.failed;
    }
  }
  for (const char f : finite) w.finite = w.finite && f;
  return w;
}

/// Per-query self times of the traced loop, summed, with the paired
/// untraced latencies.
struct LayerSums {
  std::size_t queries = 0;
  double root_us = 0.0;
  double parse_us = 0.0;
  double parse_bytes = 0.0;
  double build_us = 0.0;
  double infer_us = 0.0;
  ReplayTimes replay;
  CoreSplit split;
  double predict_sequence_us = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
  std::size_t mismatched = 0;
  std::vector<double> untraced_us;  ///< the same queries, run in one call

  void add(const LayerSums& o) {
    queries += o.queries;
    root_us += o.root_us;
    parse_us += o.parse_us;
    parse_bytes += o.parse_bytes;
    build_us += o.build_us;
    infer_us += o.infer_us;
    replay += o.replay;
    split += o.split;
    predict_sequence_us += o.predict_sequence_us;
    cache_hits += o.cache_hits;
    cache_lookups += o.cache_lookups;
    mismatched += o.mismatched;
    untraced_us.insert(untraced_us.end(), o.untraced_us.begin(),
                       o.untraced_us.end());
  }
};

/// One traced query, run one public step at a time with each step's time
/// recorded. Returns the answer's digest.
std::uint64_t traced_query(const Program& program, const std::string& csv,
                           const query::Setting& setting, std::uint64_t qseed,
                           LayerSums& t) {
  const query::CounterfactualEngine& engine = *program.engine;
  const Clock::time_point t0 = Clock::now();
  const sim::SessionLog log = sim::session_log_from_csv(csv);
  const Clock::time_point t1 = Clock::now();
  core::VeritasConfig config = engine.veritas_config();
  config.seed ^= qseed;
  const core::Veritas veritas(config);
  const Clock::time_point t2 = Clock::now();
  const core::VeritasResult abduction = veritas.infer(log);
  const Clock::time_point t3 = Clock::now();
  const query::WhatIfPrediction p = replay_whatif(
      abduction, log, *program.video, setting, engine.rtt_s(), qseed,
      &t.replay);
  t.root_us += us_between(t0, Clock::now());
  t.parse_us += us_between(t0, t1);
  t.parse_bytes += static_cast<double>(csv.size());
  t.build_us += us_between(t1, t2);
  t.infer_us += us_between(t2, t3);
  ++t.queries;

  // Probes outside the query's span: cache counters of this query's
  // engine, the abduction split, and interventional prediction.
  const core::EstimatorCache::Stats stats =
      veritas.engine().estimator_cache()->stats();
  t.cache_hits += stats.hits;
  t.cache_lookups += stats.hits + stats.misses;
  t.split += core_split(veritas.engine().ehmm(), log, config);
  const Clock::time_point p0 = Clock::now();
  const auto predictions = veritas.predict_sequence(log);
  t.predict_sequence_us += us_between(p0, Clock::now());
  if (predictions.size() != log.size()) ++t.mismatched;
  return digest(p);
}

/// The traced loop. Each query runs twice back to back, once through
/// predict_whatif (untraced) and once step by step (traced), in
/// alternating order, so both see the same host state: the difference
/// of their means is the tracing overhead, and their answers must match
/// bit for bit.
LayerSums traced_loop(const std::vector<Program>& programs,
                      const std::vector<DeployedSession>& pool,
                      const CfSpec& spec, std::uint64_t seed, double seconds) {
  std::vector<LayerSums> sums(kClients);
  std::atomic<std::size_t> next{0};
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  on_clients([&](std::size_t c) {
    const Program& program = programs[c];
    LayerSums& t = sums[c];
    while (Clock::now() < end) {
      const std::size_t i = next.fetch_add(1);
      const std::string& csv = pool[i % pool.size()].csv;
      const std::uint64_t qseed = query_seed(seed, i);
      std::uint64_t traced = 0;
      if (i % 2 == 1) traced = traced_query(program, csv, spec.setting, qseed, t);
      const Clock::time_point t0 = Clock::now();
      const std::uint64_t untraced = digest(direct_query(
          *program.engine, *program.video, csv, spec.setting, qseed));
      t.untraced_us.push_back(us_between(t0, Clock::now()));
      if (i % 2 == 0) traced = traced_query(program, csv, spec.setting, qseed, t);
      if (traced != untraced) ++t.mismatched;
    }
  });
  LayerSums total;
  for (const LayerSums& s : sums) total.add(s);
  return total;
}

struct PanelScore {
  FidelityTally tally;
  std::size_t mismatched = 0;
  bool finite = true;
};

/// The fidelity pass over the fixed panel, untimed and in parallel: the
/// one-call answer, the step-by-step answer (must match bit for bit),
/// the oracle answer on the ground truth, and posterior coverage.
PanelScore panel_pass(const Program& program, const query::Setting& setting,
                      std::size_t size, std::size_t threads) {
  const std::vector<DeployedSession> panel =
      deploy_sessions(size, kPanelSeed, threads);
  const query::CounterfactualEngine& engine = *program.engine;
  struct Item {
    query::WhatIfPrediction answer;
    core::VeritasResult abduction;
    sim::QoeMetrics oracle;
    sim::SessionLog log;
    bool match = false;
  };
  std::vector<Item> items(panel.size());
  util::ThreadPool pool(threads > 1 ? threads - 1 : 0);
  pool.parallel_for(panel.size(), [&](std::size_t, std::size_t i) {
    Item& item = items[i];
    const std::uint64_t qseed = query_seed(kPanelSeed, i);
    item.log = sim::session_log_from_csv(panel[i].csv);
    item.answer =
        engine.predict_whatif(item.log, *program.video, setting, qseed);
    core::VeritasConfig config = engine.veritas_config();
    config.seed ^= qseed;
    item.abduction = core::Veritas(config).infer(item.log);
    const query::WhatIfPrediction steps =
        replay_whatif(item.abduction, item.log, *program.video, setting,
                      engine.rtt_s(), qseed);
    item.match = digest(steps) == digest(item.answer);
    item.oracle = query::run_under_setting(panel[i].ground_truth,
                                           *program.video, setting,
                                           engine.rtt_s(), qseed);
  });
  PanelScore score;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Item& item = items[i];
    if (!item.match) ++score.mismatched;
    score.finite = score.finite && all_finite(item.answer) &&
                   all_finite(item.abduction);
    score.tally.add_answer(item.answer, item.oracle);
    score.tally.add_posterior(item.abduction, item.log,
                              panel[i].ground_truth);
  }
  return score;
}

/// The traced run's per-layer metrics, plus the traced-versus-untraced
/// comparison that measures the tracing overhead.
void report_layers(Report& report, const LayerSums& t) {
  report.count(2 * t.queries, 0);
  report.gate("traced_steps_match_predict_whatif",
              t.queries > 0 && t.mismatched == 0,
              format("%zu of %zu differ", t.mismatched, t.queries));
  const double q = static_cast<double>(std::max<std::size_t>(t.queries, 1));
  const double replays = static_cast<double>(t.replay.replays);
  report.layer("sim.parse_us", t.parse_us / q, "us");
  report.layer("sim.parse_mb_per_s", t.parse_bytes / t.parse_us, "MB/s");
  report.layer("core.engine_build_us", t.build_us / q, "us");
  report.layer("core.infer_us", t.infer_us / q, "us");
  report.layer("core.emissions_us", t.split.emissions_us / q, "us",
               "split probe, off the query span");
  report.layer("core.viterbi_us", t.split.viterbi_us / q, "us", "split probe");
  report.layer("core.forward_backward_us", t.split.forward_backward_us / q,
               "us", "split probe");
  report.layer("core.sampling_us", t.split.sampling_us / q, "us",
               "split probe");
  report.layer("core.predict_sequence_us", t.predict_sequence_us / q, "us",
               "probe, off the query span");
  report.layer("core.estimator_cache_hit_ratio",
               t.cache_lookups == 0 ? 0.0
                                    : static_cast<double>(t.cache_hits) /
                                          static_cast<double>(t.cache_lookups),
               "share",
               format("%llu lookups, cold per query",
                      static_cast<unsigned long long>(t.cache_lookups)));
  report.layer("query.baseline_us", t.replay.baseline_us / q, "us");
  report.layer("query.replay_us", t.replay.replay_us / replays, "us",
               "per replay");
  report.layer("query.replays_per_query", replays / q, "count");
  report.layer("query.bracket_us", t.replay.bracket_us / q, "us");

  // Self times add up to the traced query span; the gap to the paired
  // untraced mean is the cost of running the steps one by one, timed.
  const double self_sum = t.parse_us + t.build_us + t.infer_us +
                          t.replay.baseline_us + t.replay.replay_us +
                          t.replay.bracket_us;
  const double untraced_mean_us = mean(t.untraced_us);
  const double overhead_pct =
      100.0 * (t.root_us / q - untraced_mean_us) / untraced_mean_us;
  report.context("traced_queries", q);
  report.context("traced_self_sum_us", self_sum / q);
  report.context("traced_span_us", t.root_us / q);
  report.context("untraced_mean_us", untraced_mean_us);
  report.context("untraced_p50_us", percentile(t.untraced_us, 50.0));
  report.context("tracing_overhead_us", t.root_us / q - untraced_mean_us);
  report.context("tracing_overhead_pct", overhead_pct);
  const bool in_band = std::abs(overhead_pct) <= kOverheadBandPct;
  report.context("tracing_overhead_in_band", in_band ? "yes" : "no");
  if (!in_band) {
    std::fprintf(stderr,
                 "warning: the traced steps take %+.1f%% of predict_whatif's "
                 "time (band +-%.0f%%): the per-layer split no longer "
                 "describes predict_whatif\n",
                 overhead_pct, kOverheadBandPct);
  }
}

}  // namespace

Report run_counterfactual(const RunOptions& options) {
  Report report(options.workload);
  const CfSpec spec = spec_for(options.workload);
  report.context("client_threads", static_cast<double>(kClients));
  report.context("pool_logs", static_cast<double>(spec.pool));
  if (kClients > options.nproc) {
    std::fprintf(stderr, "%s needs %zu client threads, but only %zu CPUs\n",
                 options.workload.c_str(), kClients, options.nproc);
    report.gate("threads_within_nproc", false);
    return report;
  }

  const std::vector<DeployedSession> pool =
      deploy_sessions(spec.pool, options.seed, options.nproc);
  reset_peak_rss(report);

  std::vector<Program> programs;
  const double setup_s = set_up(programs, pool, spec, options.seed);

  if (options.trace) {
    report_layers(report, traced_loop(programs, pool, spec, options.seed,
                                      options.seconds));
    return report;
  }

  const Window w =
      closed_loop(programs, pool, spec, options.seed, options.seconds);
  const double peak_mb = peak_rss_mb();  // before the fidelity pass
  report.count(w.latency_ms.size() + w.failed, w.failed);
  report.gate("no_failed_queries", w.failed == 0);
  report.gate("answers_finite", w.finite);
  const std::size_t n = w.latency_ms.size();
  const double p50 = percentile(w.latency_ms, 50.0);
  const double tail =
      windowed_percentile(w.latency_ms, spec.tail_p, kTailWindows);

  // Fidelity is scored on the fixed Fig. 9 panel on every workload; a
  // workload with another setting also checks its own setting's
  // step-by-step answers on a smaller slice of the panel.
  const Program& program = programs.front();
  const PanelScore fig9 =
      panel_pass(program, fidelity_setting(), kPanelSize, options.nproc);
  report.gate("panel_steps_match_predict_whatif", fig9.mismatched == 0,
              format("%zu of %zu differ", fig9.mismatched, kPanelSize));
  report.gate("panel_finite", fig9.finite);
  if (spec.setting.abr != fidelity_setting().abr) {
    const PanelScore own =
        panel_pass(program, spec.setting, kOwnPanelSize, options.nproc);
    report.gate("own_setting_steps_match", own.mismatched == 0,
                format("%zu of %zu differ", own.mismatched, kOwnPanelSize));
    report.gate("own_setting_finite", own.finite);
    report.context("own_setting_ssim_err", own.tally.ssim_err());
    report.context("own_setting_rebuffer_err_pct",
                   own.tally.rebuffer_err_pct());
    report.context("own_setting_baseline_ssim_err",
                   own.tally.baseline_ssim_err());
  }

  const double qps = static_cast<double>(n + w.failed) / w.elapsed_s;
  report.end_to_end("queries_per_s", qps, "1/s",
                    format("%zu closed-loop clients", kClients));
  report.end_to_end("goodput_per_s", static_cast<double>(n) / w.elapsed_s,
                    "1/s");
  report.end_to_end("latency_p50_ms", p50, "ms", format("n=%zu", n));
  report.end_to_end("latency_tail_ms", tail, "ms",
                    tail_note(spec.tail_p, n, kTailWindows));
  report.end_to_end("predict_p50_ms", p50, "ms",
                    "every direct query is a predict_whatif");
  report.end_to_end("setup_s", setup_s, "s",
                    format("median of %d", kSetupRepeats));
  report.end_to_end("peak_rss_mb", peak_mb, "MiB",
                    "set-up and timed loop, inputs included");
  report_fidelity(report, fig9.tally);
  report.context("failed_share", static_cast<double>(w.failed) /
                                     static_cast<double>(n + w.failed));
  report.context("latency_mean_ms", mean(w.latency_ms));
  return report;
}

}  // namespace perfbench
