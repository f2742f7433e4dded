#include "pipeline.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "core/baseline.hpp"
#include "core/observation.hpp"
#include "core/sampler.hpp"
#include "util/expects.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace veritas;

namespace {

/// Per-metric order statistic across samples: the 2nd-lowest or
/// 2nd-highest value (the extremes when fewer than three samples).
sim::QoeMetrics order_statistic(const std::vector<sim::QoeMetrics>& samples,
                                bool high) {
  auto pick = [&](auto field) {
    std::vector<double> v;
    v.reserve(samples.size());
    for (const sim::QoeMetrics& m : samples) v.push_back(field(m));
    std::sort(v.begin(), v.end());
    if (v.size() < 3) return high ? v.back() : v.front();
    return high ? v[v.size() - 2] : v[1];
  };
  sim::QoeMetrics out;
  out.mean_ssim = pick([](const auto& m) { return m.mean_ssim; });
  out.mean_ssim_db = pick([](const auto& m) { return m.mean_ssim_db; });
  out.rebuffer_ratio_pct =
      pick([](const auto& m) { return m.rebuffer_ratio_pct; });
  out.avg_bitrate_mbps = pick([](const auto& m) { return m.avg_bitrate_mbps; });
  out.startup_delay_s = pick([](const auto& m) { return m.startup_delay_s; });
  out.quality_switches = static_cast<std::size_t>(
      pick([](const auto& m) { return double(m.quality_switches); }));
  return out;
}

void feed(util::Fnv1aHasher& h, const sim::QoeMetrics& m) {
  h.f64(m.mean_ssim)
      .f64(m.mean_ssim_db)
      .f64(m.rebuffer_ratio_pct)
      .f64(m.avg_bitrate_mbps)
      .f64(m.startup_delay_s)
      .u64(m.quality_switches);
}

bool finite(const sim::QoeMetrics& m) {
  return std::isfinite(m.mean_ssim) && std::isfinite(m.mean_ssim_db) &&
         std::isfinite(m.rebuffer_ratio_pct) &&
         std::isfinite(m.avg_bitrate_mbps) && std::isfinite(m.startup_delay_s);
}

double distance_to_bracket(double v, double lo, double hi) {
  return std::max({0.0, lo - v, v - hi});
}

}  // namespace

query::WhatIfPrediction replay_whatif(const core::VeritasResult& abduction,
                                      const sim::SessionLog& log,
                                      const video::Video& video,
                                      const query::Setting& setting,
                                      double rtt_s, std::uint64_t seed,
                                      ReplayTimes* times) {
  const Clock::time_point t0 = Clock::now();
  const trace::BandwidthTrace baseline = core::baseline_trace(log);
  const Clock::time_point t1 = Clock::now();
  query::WhatIfPrediction p;
  p.baseline = query::run_under_setting(baseline, video, setting, rtt_s, seed);
  p.veritas_samples.reserve(abduction.samples.size());
  for (const trace::BandwidthTrace& sample : abduction.samples) {
    p.veritas_samples.push_back(
        query::run_under_setting(sample, video, setting, rtt_s, seed));
  }
  const Clock::time_point t2 = Clock::now();
  p.veritas_low = order_statistic(p.veritas_samples, false);
  p.veritas_high = order_statistic(p.veritas_samples, true);
  if (times != nullptr) {
    times->baseline_us += us_between(t0, t1);
    times->replay_us += us_between(t1, t2);
    times->bracket_us += us_between(t2, Clock::now());
    times->replays += 1 + abduction.samples.size();
  }
  return p;
}

CoreSplit core_split(const core::Ehmm& ehmm, const sim::SessionLog& log,
                     const core::VeritasConfig& config) {
  const std::vector<core::ChunkObservation> obs =
      core::observations_from_log(log);
  auto cache = std::make_shared<core::EstimatorCache>();
  math::Matrix means;
  math::Matrix log_probs;
  core::Ehmm::Scratch scratch;
  scratch.estimator_cache = cache;

  CoreSplit split;
  const Clock::time_point t0 = Clock::now();
  ehmm.emission_means_into(obs, means, *cache);
  ehmm.emission_log_probs_from_means_into(obs, means, log_probs);
  const Clock::time_point t1 = Clock::now();
  const core::Ehmm::ViterbiResult viterbi = ehmm.viterbi(obs, scratch);
  const Clock::time_point t2 = Clock::now();
  const core::Ehmm::ForwardBackwardResult fb =
      ehmm.forward_backward(obs, scratch);
  const Clock::time_point t3 = Clock::now();
  const util::Rng rng(config.seed);
  std::size_t drawn = 0;
  for (std::size_t k = 0; k < config.num_samples; ++k) {
    util::Rng child = rng.fork(k);
    drawn += core::sample_capacity_states(ehmm, viterbi, fb, scratch, child,
                                          config.sampler)
                 .size();
  }
  const Clock::time_point t4 = Clock::now();
  VERITAS_EXPECTS(drawn == obs.size() * config.num_samples);
  split.emissions_us = us_between(t0, t1);
  split.viterbi_us = us_between(t1, t2);
  split.forward_backward_us = us_between(t2, t3);
  split.sampling_us = us_between(t3, t4);
  return split;
}

std::uint64_t digest(const query::WhatIfPrediction& p) {
  util::Fnv1aHasher h;
  feed(h, p.baseline);
  for (const sim::QoeMetrics& m : p.veritas_samples) feed(h, m);
  feed(h, p.veritas_low);
  feed(h, p.veritas_high);
  return h.digest();
}

std::uint64_t digest(const core::VeritasResult& r) {
  util::Fnv1aHasher h;
  h.f64(r.log_likelihood);
  for (const double v : r.map_states_mbps) h.f64(v);
  for (std::size_t n = 0; n < r.posterior_marginals.rows(); ++n) {
    for (std::size_t i = 0; i < r.posterior_marginals.cols(); ++i) {
      h.f64(r.posterior_marginals(n, i));
    }
  }
  for (const trace::BandwidthTrace& s : r.samples) {
    h.f64(s.interval_s());
    for (const double v : s.values_mbps()) h.f64(v);
  }
  return h.digest();
}

bool all_finite(const core::VeritasResult& r) {
  bool ok = std::isfinite(r.log_likelihood);
  for (std::size_t n = 0; n < r.posterior_marginals.rows(); ++n) {
    for (std::size_t i = 0; i < r.posterior_marginals.cols(); ++i) {
      ok = ok && std::isfinite(r.posterior_marginals(n, i));
    }
  }
  for (const trace::BandwidthTrace& s : r.samples) {
    for (const double v : s.values_mbps()) ok = ok && std::isfinite(v);
  }
  return ok;
}

bool all_finite(const query::WhatIfPrediction& p) {
  bool ok = finite(p.baseline) && finite(p.veritas_low) &&
            finite(p.veritas_high);
  for (const sim::QoeMetrics& m : p.veritas_samples) ok = ok && finite(m);
  return ok;
}

void FidelityTally::add_answer(const query::WhatIfPrediction& p,
                               const sim::QoeMetrics& oracle) {
  ssim_err_.push_back(distance_to_bracket(
      oracle.mean_ssim, p.veritas_low.mean_ssim, p.veritas_high.mean_ssim));
  rebuffer_err_.push_back(distance_to_bracket(
      oracle.rebuffer_ratio_pct, p.veritas_low.rebuffer_ratio_pct,
      p.veritas_high.rebuffer_ratio_pct));
  baseline_ssim_err_.push_back(
      std::abs(p.baseline.mean_ssim - oracle.mean_ssim));
  baseline_rebuffer_err_.push_back(
      std::abs(p.baseline.rebuffer_ratio_pct - oracle.rebuffer_ratio_pct));
}

void FidelityTally::add_posterior(const core::VeritasResult& r,
                                  const sim::SessionLog& log,
                                  const trace::BandwidthTrace& ground_truth) {
  if (r.samples.empty()) return;
  for (const sim::ChunkLog& chunk : log.chunks) {
    double lo = r.samples.front().at(chunk.start_s);
    double hi = lo;
    for (const trace::BandwidthTrace& s : r.samples) {
      lo = std::min(lo, s.at(chunk.start_s));
      hi = std::max(hi, s.at(chunk.start_s));
    }
    const double truth = ground_truth.at(chunk.start_s);
    ++chunks_;
    if (truth >= lo && truth <= hi) ++covered_;
  }
}

query::Setting fidelity_setting() {
  return query::Setting{.abr = "bba", .buffer_capacity_s = 5.0, .ladder = {}};
}

void report_fidelity(Report& report, const FidelityTally& tally) {
  const std::string note =
      format("median over a fixed panel of %zu Fig. 9 what-ifs",
             tally.answers());
  report.end_to_end("cf_ssim_err", tally.ssim_err(), "ssim", note);
  report.end_to_end("cf_rebuffer_err_pct", tally.rebuffer_err_pct(), "%",
                    note);
  report.end_to_end("posterior_coverage", tally.coverage(), "share",
                    format("%zu chunks", tally.chunks()));
  report.context("baseline_ssim_err", tally.baseline_ssim_err());
  report.context("baseline_rebuffer_err_pct",
                 tally.baseline_rebuffer_err_pct());
}

std::string tail_note(double p, std::size_t n, std::size_t windows) {
  const std::size_t per_window = n / windows;
  return format("p%g, median of %zu windows of %zu, %zu beyond each%s", p,
                windows, per_window, samples_beyond(per_window, p),
                supports_percentile(per_window, p) ? "" : " (fewer than ten)");
}

}  // namespace perfbench
