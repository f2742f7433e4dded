// The what-if pipeline taken apart into its public steps, and the
// fidelity tally that scores answers against ground truth.
//
// CounterfactualEngine::predict_whatif runs abduction, the Baseline
// reconstruction, K+1 replays and the per-metric bracket in one call.
// The traced run and the correctness gates run the same steps one public
// function at a time, so each step can be timed and the result compared
// bit for bit with the one-call answer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_stats.hpp"
#include "core/inference_engine.hpp"
#include "query/counterfactual.hpp"
#include "report.hpp"
#include "sim/session_log.hpp"
#include "trace/bandwidth_trace.hpp"
#include "video/video.hpp"

namespace perfbench {

/// Wall time of the replay-side steps of one what-if query.
struct ReplayTimes {
  double baseline_us = 0.0;  ///< core::baseline_trace
  double replay_us = 0.0;    ///< all query::run_under_setting calls
  double bracket_us = 0.0;   ///< 2nd-lowest / 2nd-highest per metric
  std::size_t replays = 0;

  ReplayTimes& operator+=(const ReplayTimes& o) {
    baseline_us += o.baseline_us;
    replay_us += o.replay_us;
    bracket_us += o.bracket_us;
    replays += o.replays;
    return *this;
  }
};

/// Steps 3-5 of predict_whatif on an abduction result: Baseline replay,
/// one replay per posterior sample, then the bracket. Bit-identical to
/// predict_whatif given the same abduction and seed.
veritas::query::WhatIfPrediction replay_whatif(
    const veritas::core::VeritasResult& abduction,
    const veritas::sim::SessionLog& log, const veritas::video::Video& video,
    const veritas::query::Setting& setting, double rtt_s, std::uint64_t seed,
    ReplayTimes* times = nullptr);

/// Abduction taken apart on one log's observations: the public emission,
/// Viterbi, forward-backward and sampling entry points timed one by one.
/// The emission phase fills a fresh estimator cache; the recursions then
/// run with that cache attached, as they would after InferenceEngine's
/// fused emission pass.
struct CoreSplit {
  double emissions_us = 0.0;
  double viterbi_us = 0.0;
  double forward_backward_us = 0.0;
  double sampling_us = 0.0;

  CoreSplit& operator+=(const CoreSplit& o) {
    emissions_us += o.emissions_us;
    viterbi_us += o.viterbi_us;
    forward_backward_us += o.forward_backward_us;
    sampling_us += o.sampling_us;
    return *this;
  }
};
CoreSplit core_split(const veritas::core::Ehmm& ehmm,
                     const veritas::sim::SessionLog& log,
                     const veritas::core::VeritasConfig& config);

/// Bitwise digest of every number in a prediction.
std::uint64_t digest(const veritas::query::WhatIfPrediction& p);

/// Bitwise digest of an abduction result (likelihood, MAP, marginals,
/// samples).
std::uint64_t digest(const veritas::core::VeritasResult& r);

/// Whether every log-likelihood, marginal and sample value is finite.
bool all_finite(const veritas::core::VeritasResult& r);

/// Whether every QoE number of the prediction is finite.
bool all_finite(const veritas::query::WhatIfPrediction& p);

/// Fidelity of what-if answers against the oracle (Setting B replayed on
/// the ground truth) and of posteriors against the ground-truth trace.
class FidelityTally {
 public:
  /// Scores one answer: the distance from the oracle to the Veritas
  /// [low, high] bracket (0 inside it), and the Baseline's plain error.
  void add_answer(const veritas::query::WhatIfPrediction& p,
                  const veritas::sim::QoeMetrics& oracle);

  /// Counts the chunks whose ground-truth bandwidth at chunk start lies
  /// within the range of the posterior samples there.
  void add_posterior(const veritas::core::VeritasResult& r,
                     const veritas::sim::SessionLog& log,
                     const veritas::trace::BandwidthTrace& ground_truth);

  double ssim_err() const { return median(ssim_err_); }
  double rebuffer_err_pct() const { return median(rebuffer_err_); }
  double baseline_ssim_err() const { return median(baseline_ssim_err_); }
  double baseline_rebuffer_err_pct() const {
    return median(baseline_rebuffer_err_);
  }
  double coverage() const {
    return chunks_ == 0 ? 0.0
                        : static_cast<double>(covered_) /
                              static_cast<double>(chunks_);
  }
  std::size_t answers() const { return ssim_err_.size(); }
  std::size_t chunks() const { return chunks_; }

 private:
  std::vector<double> ssim_err_;
  std::vector<double> rebuffer_err_;
  std::vector<double> baseline_ssim_err_;
  std::vector<double> baseline_rebuffer_err_;
  std::size_t chunks_ = 0;
  std::size_t covered_ = 0;
};

/// The what-if every workload's fidelity is scored on: paper Fig. 9,
/// the deployed MPC replaced by BBA.
veritas::query::Setting fidelity_setting();

/// Adds cf_ssim_err, cf_rebuffer_err_pct and posterior_coverage, plus the
/// Baseline's own errors as context.
void report_fidelity(Report& report, const FidelityTally& tally);

/// "p99, median of 10 windows of 2700, 26 beyond each": a windowed tail
/// value's percentile and support.
std::string tail_note(double p, std::size_t n, std::size_t windows);

}  // namespace perfbench
