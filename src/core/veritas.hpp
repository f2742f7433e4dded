// The Veritas facade: the library's primary public API.
//
// Given a deployed system's session log (chunk sizes, timings and TCP
// states — no ground-truth bandwidth), Veritas performs the paper's
// abduction step: it infers the posterior over the latent GTBW process
// via its EHMM and returns (a) the MAP trace and (b) K posterior sample
// traces that a counterfactual engine can replay under a new setting,
// plus (c) interventional next-chunk predictions.
//
// The facade holds the configuration and delegates all inference to a
// shared InferenceEngine (core/inference_engine.hpp), built once at
// construction: state space and emission tables are set up there, and
// the transition model builds each A^Δ power entry on first use; all of
// it is reused across queries and threads. Use engine() / infer_batch()
// to serve many sessions in parallel on the same model.
//
// Typical use:
//   veritas::core::Veritas veritas;                  // paper defaults
//   auto result = veritas.infer(session_log);
//   for (const auto& trace : result.samples) { /* replay Setting B */ }
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/baseline.hpp"
#include "core/inference_engine.hpp"

namespace veritas::core {

/// Interventional prediction for one hypothetical next chunk.
struct NextChunkPrediction {
  double expected_gtbw_mbps = 0.0;  ///< E[C at next start | history]
  double throughput_mbps = 0.0;     ///< f(E[C], W, S)
  double download_time_s = 0.0;     ///< S / throughput
};

/// Full posterior-predictive distribution for one hypothetical next
/// chunk (extension beyond the paper's single most-likely sample):
/// the smoothed posterior over the current GTBW state propagated through
/// A^Δ, mapped through the estimator f per candidate state.
struct NextChunkDistribution {
  std::vector<double> gtbw_mbps;        ///< state values (ascending)
  std::vector<double> probabilities;    ///< P(next GTBW = value | history)
  std::vector<double> download_time_s;  ///< per-state predicted time

  /// Weighted quantile of the predicted download time, q in [0, 1].
  double time_quantile_s(double q) const;

  /// Posterior-mean predicted download time (states with zero estimated
  /// throughput contribute the worst finite state's time).
  double mean_time_s() const;
};

class Veritas {
 public:
  explicit Veritas(VeritasConfig config = {});

  /// Wraps an already-built engine (non-null) instead of constructing a
  /// new one — the service layer uses this to put a facade over a shard's
  /// shared engine without re-deriving the EHMM tables.
  explicit Veritas(std::shared_ptr<const InferenceEngine> engine);

  /// Abduction (paper Eq. 1): posterior over GTBW given the log.
  /// Requires a non-empty log. Deterministic in config().seed.
  VeritasResult infer(const sim::SessionLog& log) const;

  /// Batch abduction over many logs on the shared engine; `num_threads`
  /// = 0 uses the hardware thread count. Results are identical to
  /// calling infer() per log, independent of thread count.
  std::vector<VeritasResult> infer_batch(
      std::span<const sim::SessionLog> logs,
      std::size_t num_threads = 0) const;

  /// Predicts the download time of a hypothetical next chunk of
  /// `next_size_bytes` starting at `next_start_s` in TCP state `w`,
  /// given the session so far (paper §4.4: a single most-likely GTBW
  /// sample advanced through the transition matrix).
  NextChunkPrediction predict_next(const sim::SessionLog& history,
                                   double next_start_s,
                                   const net::TcpState& w,
                                   double next_size_bytes) const;

  /// Posterior-predictive variant of predict_next: instead of a point
  /// estimate from the most-likely state, returns the full distribution
  /// over next-chunk GTBW (smoothed posterior at the last chunk pushed
  /// through A^Δ) with per-state download-time predictions.
  NextChunkDistribution predict_next_distribution(
      const sim::SessionLog& history, double next_start_s,
      const net::TcpState& w, double next_size_bytes) const;

  /// Batch interventional sweep for evaluation (paper Fig. 12): for each
  /// chunk n >= 1 of `log`, predicts its download time from the prefix
  /// [0, n) using the chunk's recorded start time, TCP state and size.
  /// Entry 0 is a prior-only prediction. Cost: one Viterbi pass total.
  /// The scratch overload reuses a caller arena across calls (and
  /// consults the engine's cross-session estimator cache) — the service
  /// worker-lane path.
  std::vector<NextChunkPrediction> predict_sequence(
      const sim::SessionLog& log) const;
  std::vector<NextChunkPrediction> predict_sequence(
      const sim::SessionLog& log, Ehmm::Scratch& scratch) const;

  /// The Baseline reconstruction for the same log (paper §4.1), exposed
  /// here for side-by-side comparisons.
  trace::BandwidthTrace baseline(const sim::SessionLog& log) const;

  /// A copy of the configured EHMM (for tests / advanced use). Prefer
  /// engine().ehmm() to borrow the shared instance without copying.
  Ehmm make_ehmm() const;

  /// The shared immutable inference engine backing this facade.
  const InferenceEngine& engine() const noexcept { return *engine_; }

  /// Shared ownership of the engine, e.g. to hand to worker threads that
  /// outlive this facade.
  std::shared_ptr<const InferenceEngine> engine_ptr() const noexcept {
    return engine_;
  }

  const VeritasConfig& config() const noexcept { return engine_->config(); }

 private:
  NextChunkPrediction predict_from_state(std::size_t state,
                                         std::size_t delta_windows,
                                         const net::TcpState& w,
                                         double next_size_bytes,
                                         const Ehmm& ehmm) const;

  std::shared_ptr<const InferenceEngine> engine_;
};

}  // namespace veritas::core
