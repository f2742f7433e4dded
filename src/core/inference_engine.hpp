// The fused EHMM inference engine: one immutable model, many sessions.
//
// The engine owns an Ehmm (state space, transition model whose A^Δ
// power entries are built on first use, emission model with the
// multi-window span-candidate table) and processes each session in a
// single fused pass: emission log-probs and window deltas are computed
// once and shared by Viterbi, forward-backward and posterior sampling.
// Per-session buffers come from reusable Ehmm::Scratch arenas, so
// steady-state inference allocates only its results.
//
// Because the model's results are fixed at construction (a lazily built
// A^Δ entry depends only on A and Δ), one engine can be shared by any
// number of threads, and a fresh engine answers exactly like a warm
// one; infer_batch() fans a set of session logs across a worker pool
// (one scratch arena per lane) and returns results identical to the
// serial path regardless of thread count.
//
// Veritas (core/veritas.hpp) is a thin facade over this class; use the
// engine directly when serving many sessions against one configuration.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/ehmm.hpp"
#include "core/reconstruction.hpp"
#include "core/sampler.hpp"
#include "net/tcp_state.hpp"
#include "trace/bandwidth_trace.hpp"

namespace veritas::core {

/// Hyperparameters (defaults are the paper's §4.1 settings).
struct VeritasConfig {
  double delta_s = 5.0;          ///< GTBW transition interval δ
  double epsilon_mbps = 0.5;     ///< GTBW quantization ε
  double sigma_mbps = 0.5;       ///< emission noise σ
  double max_mbps = 10.0;        ///< top of the state space
  double transition_stay = 0.8;  ///< tridiagonal stay probability
  TransitionPrior prior = TransitionPrior::kTridiagonal;
  std::size_t band_width = 3;    ///< used when prior == kBanded
  std::size_t num_samples = 5;   ///< posterior samples per query
  Interpolation interpolation = Interpolation::kLinear;
  EmissionModel::Estimator estimator = EmissionModel::Estimator::kFullTcp;
  SamplerConfig sampler;
  net::TcpConfig tcp;
  std::uint64_t seed = 1234;
  /// Byte budget of the engine-owned cross-session (W, S) estimator
  /// cache shared by every scratch the engine serves (see
  /// core/estimator_cache.hpp; converted to an entry count from the
  /// state-space size, since each entry stores a k-double mean row —
  /// a fixed entry count would balloon on large grids). 0 disables
  /// caching for this engine: every infer call runs with a fresh
  /// per-session memo (the pre-PR 5 behavior). Exact keys by default,
  /// so the setting never changes results, only how often the TCP
  /// estimator actually runs.
  std::size_t estimator_cache_bytes = EstimatorCache::kDefaultByteBudget;
  /// Mantissa bits kept when quantizing estimator-cache inputs; 0 (the
  /// default) keys exact bit patterns and is bit-identical to no
  /// caching. Positive values collapse near-identical TCP snapshots
  /// onto shared entries (higher hit rate, bounded emission-mean error;
  /// hits remain bit-identical to the misses that filled them).
  unsigned estimator_cache_quant_bits = 0;
};

/// Output of the abduction step.
struct VeritasResult {
  trace::BandwidthTrace map_trace;             ///< Viterbi MAP GTBW trace
  std::vector<trace::BandwidthTrace> samples;  ///< K posterior samples
  std::vector<double> map_states_mbps;         ///< MAP GTBW per chunk
  math::Matrix posterior_marginals;            ///< gamma: N x K
  double log_likelihood = 0.0;                 ///< log P(observations)
};

class InferenceEngine {
 public:
  /// Builds the immutable model. Validates the config (same contract as
  /// the Veritas facade).
  explicit InferenceEngine(VeritasConfig config);

  const VeritasConfig& config() const noexcept { return config_; }
  const Ehmm& ehmm() const noexcept { return ehmm_; }

  /// The engine's cross-session (W, S) estimator cache — shared by every
  /// scratch served through this engine (each infer path points the
  /// scratch at it); null when config().estimator_cache_bytes is 0.
  /// Thread-safe; exposed for stats and tests.
  const std::shared_ptr<EstimatorCache>& estimator_cache() const noexcept {
    return estimator_cache_;
  }

  /// Raw fused pass over one observation sequence: Viterbi + smoothing
  /// from a single emission/delta computation.
  Ehmm::InferencePass infer_session(
      std::span<const ChunkObservation> observations,
      Ehmm::Scratch& scratch) const;
  Ehmm::InferencePass infer_session(
      std::span<const ChunkObservation> observations) const;

  /// Full abduction for one session log (paper Eq. 1): MAP trace, K
  /// posterior sample traces, marginals. Deterministic in config().seed;
  /// identical to the seed two-pass Veritas::infer output. VeritasResult
  /// is a plain value type with no back-references into the engine, so a
  /// result can be cached and shared (e.g. behind shared_ptr<const>)
  /// independently of the engine's lifetime.
  VeritasResult infer(const sim::SessionLog& log, Ehmm::Scratch& scratch) const;
  VeritasResult infer(const sim::SessionLog& log) const;

  /// infer() with the posterior-sampling seed overridden: bit-identical
  /// to building an engine whose config differs only in `seed` and
  /// calling its infer() — the model itself is seed-independent. Lets a
  /// shared engine serve per-query seeds (e.g. per-session what-if
  /// queries) without rebuilding the EHMM tables.
  VeritasResult infer_with_seed(const sim::SessionLog& log,
                                Ehmm::Scratch& scratch,
                                std::uint64_t sample_seed) const;

  /// Abducts every log, fanning out over `num_threads` lanes (0 = the
  /// hardware thread count). Results are positionally identical to
  /// calling infer() per log — independent of thread count and schedule.
  std::vector<VeritasResult> infer_batch(
      std::span<const sim::SessionLog> logs,
      std::size_t num_threads = 0) const;

 private:
  /// Points `scratch` at the engine cache (when enabled) so the emission
  /// phase reuses rows across sessions, lanes and repeat queries.
  void attach_cache(Ehmm::Scratch& scratch) const;

  VeritasConfig config_;
  Ehmm ehmm_;
  std::shared_ptr<EstimatorCache> estimator_cache_;
};

}  // namespace veritas::core
