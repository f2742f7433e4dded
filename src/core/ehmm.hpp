// The Veritas Embedded Hidden Markov Model (paper §3.2).
//
// Differences from a textbook HMM:
//  * emissions come from the domain-specific TCP estimator f (EmissionModel)
//    conditioned on control variables (W_sn, S_n), not a fitted density;
//  * the chain is *embedded*: hidden GTBW states live on δ-second windows,
//    chunks start at arbitrary times, so the transition between chunk n-1
//    and chunk n is A^Δn with Δn = window(s_n) - window(s_{n-1}) — zero
//    (same window), one, or many window hops (paper Fig. 4).
//
// Implements the paper's Viterbi variant (Algorithm 3) and scaled
// Baum-Welch forward-backward variant (Algorithm 2) producing the pair
// posterior Γ used by the capacity sampler (Algorithm 1).
//
// Hot-path layout: the model's results are fixed at construction — the
// multi-window span-candidate table is precomputed in the constructor,
// and each A^Δ power entry (with transposed / log-transposed variants)
// is built once on first use and published thread-safely, identical
// whichever thread builds it — so one Ehmm can serve many sessions from
// many threads. Per-session buffers live in Ehmm::Scratch, and
// infer_fused() runs Viterbi and forward-backward off a single shared
// emission/delta computation.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/emission_model.hpp"
#include "core/estimator_cache.hpp"
#include "core/observation.hpp"
#include "core/state_space.hpp"
#include "core/transition_model.hpp"
#include "math/matrix.hpp"
#include "util/rng.hpp"

namespace veritas::core {

/// How the posterior capacity sampler (paper Algorithm 1) chooses the
/// final chunk's state before backward sampling.
struct SamplerConfig {
  enum class LastState {
    kViterbi,    ///< paper Algorithm 1: pin to the MAP final state
    kPosterior,  ///< pure FFBS: sample from gamma(N-1, ·)
  };
  LastState last_state = LastState::kViterbi;
};

class Ehmm {
 public:
  /// Lock-free A^Δ slot count sized at construction; every entry is
  /// built on first use. Δ beyond the slots goes to the
  /// TransitionModel's read-mostly memo, in the same layout and through
  /// the same kernels (identical results), so engines do not configure
  /// it; only tests and benches that exercise the memo pass another.
  static constexpr std::size_t kDefaultPrecomputedPowers = 64;

  /// Cap on the multi-window emission span (kMultiWindow estimator).
  static constexpr std::size_t kMaxSpanWindows = 8;

  /// Requires matching state counts and delta_s > 0 (the paper's δ).
  Ehmm(StateSpace space, TransitionModel transition, EmissionModel emission,
       double delta_s,
       std::size_t precompute_powers = kDefaultPrecomputedPowers);

  const StateSpace& space() const noexcept { return space_; }
  const TransitionModel& transition() const noexcept { return transition_; }
  const EmissionModel& emission() const noexcept { return emission_; }
  double delta_s() const noexcept { return delta_s_; }

  /// Reusable per-session workspace. A default-constructed Scratch works
  /// for any session; buffers grow to the largest session seen and are
  /// reused, so the recursions allocate nothing in steady state. Use one
  /// Scratch per thread. After forward_backward the alpha/beta/em/deltas
  /// buffers hold that session's tables — sample_posterior and
  /// pair_posterior read them instead of materialized xi matrices.
  ///
  /// All N x K matrices here have rows padded/aligned to the SIMD lane
  /// quantum (math::kRowPadDoubles) with neutral pad values (0 for
  /// probability-domain rows, -inf for log rows), so the vector kernels
  /// load whole lanes without masking. Logical shape is unchanged;
  /// iterate cols() or use row_data() + col_stride().
  struct Scratch {
    math::Matrix log_emission;        ///< N x K emission log-probs
    math::Matrix em;                  ///< row-scaled emissions exp(logE - max)
    math::Matrix alpha;               ///< scaled forward table
    math::Matrix beta;                ///< scaled backward table
    std::vector<std::size_t> deltas;  ///< Δn per chunk
    std::vector<double> row_max;      ///< per-row emission log max
    std::vector<double> log_scale;    ///< forward scaling factors
    std::vector<double> row;          ///< padded-K recursion buffer
    std::vector<std::uint32_t> back;  ///< flat N*stride Viterbi backpointers
    /// The (W, S) estimator memo consulted by the emission phase. Owners
    /// that serve many sessions against one model point this at a shared
    /// cross-session cache (InferenceEngine and baum_welch_train do it
    /// automatically); left null, prepare() lazily creates a private one
    /// that persists across this scratch's sessions — strictly more
    /// reuse than the per-session EmissionMemo it replaces, with memory
    /// bounded by the cache's capacity. Entries are keyed by the owning
    /// model's candidate-table id, so one cache can serve any number of
    /// models without cross-talk.
    std::shared_ptr<EstimatorCache> estimator_cache;
    /// Lock-free L1 front-cache over `estimator_cache` (PR 7 tentpole):
    /// repeat (W, S) tuples inside this scratch's sessions resolve to
    /// their memoized rows without touching the shared memo's sharded
    /// locks. Re-keyed automatically (owner pointer + epoch) when the
    /// scratch hops engines or the shared cache is clear()ed.
    EstimatorCache::L1 estimator_l1;
    /// Zero-copy emission means of the current session: row n of the
    /// N x K mean matrix as a pointer straight into the owning cache
    /// entry's storage (only k readable doubles — not padded). Filled by
    /// prepare() via emission_mean_rows_into; `emission_refs` pins every
    /// row's entry for the session so L1 displacement or shard flushes
    /// cannot free a row mid-recursion.
    std::vector<const double*> emission_rows;
    std::vector<std::shared_ptr<const EstimatorCache::Entry>> emission_refs;
  };

  /// GTBW window index of wall-clock time t.
  std::size_t window_of(double t_s) const;

  /// Δn for n = 1..N-1 (Δ[0] is defined as 0 and unused). Requires
  /// non-decreasing start times.
  std::vector<std::size_t> window_deltas(
      std::span<const ChunkObservation> observations) const;
  void window_deltas_into(std::span<const ChunkObservation> observations,
                          std::vector<std::size_t>& out) const;

  /// N x K matrix of log emission probabilities:
  /// (n, i) -> log P(Y_n | W_sn, S_n, C = value(i)).
  math::Matrix emission_log_probs(
      std::span<const ChunkObservation> observations) const;
  void emission_log_probs_into(std::span<const ChunkObservation> observations,
                               math::Matrix& out) const;

  /// N x K matrix of emission means: (n, i) -> f(candidate_i, W_sn, S_n),
  /// span-averaged under kMultiWindow. Each distinct (TCP state, size)
  /// tuple runs the batched estimator once and is memoized in `cache` —
  /// within the session (the old EmissionMemo dedup), across sessions,
  /// and across threads when the cache is shared. When `plain_means` is
  /// non-null it receives the un-averaged f(value(i), W, S) matrix —
  /// what Baum-Welch's σ re-estimate consumes; identical to `means`
  /// except under kMultiWindow, and filled from the same estimator
  /// evaluations. Results are bit-identical whether a row came from a
  /// hit or a miss (under quantization both paths evaluate the quantized
  /// inputs). When `l1` is non-null it is sync()ed to `cache` and
  /// consulted before the shared memo — pure acceleration, same bits.
  void emission_means_into(std::span<const ChunkObservation> observations,
                           math::Matrix& means, EstimatorCache& cache,
                           math::Matrix* plain_means = nullptr,
                           EstimatorCache::L1* l1 = nullptr) const;

  /// Zero-copy variant of emission_means_into: instead of memcpying each
  /// memoized row into a dense matrix, fills `rows[n]` with a pointer
  /// into the cache entry's own storage (k readable doubles, unpadded)
  /// and pins each entry in `refs` so the pointers outlive L1
  /// displacement and shard capacity flushes for the whole session.
  /// An L1 hit here costs a probe and one shared_ptr copy — no shard
  /// lock, no hash-map lookup, no row copy. Row values are bit-identical
  /// to the matrix API's. Plain (un-averaged) means are not exposed —
  /// Baum-Welch's σ path keeps the matrix API.
  void emission_mean_rows_into(
      std::span<const ChunkObservation> observations, EstimatorCache& cache,
      EstimatorCache::L1& l1, std::vector<const double*>& rows,
      std::vector<std::shared_ptr<const EstimatorCache::Entry>>& refs) const;

  /// Fingerprint of everything an emission-mean row depends on besides
  /// (W, S): estimator kind, TCP config, candidate values, span table
  /// and δ. Two models agree on every row iff their ids match, so the
  /// id scopes EstimatorCache entries (config/epoch invalidation).
  std::uint64_t emission_table_id() const noexcept {
    return emission_table_id_;
  }

  /// Emission log-probs from precomputed means:
  /// out(n, i) = log Normal(Y_n; means(n, i), σ). Composing this with
  /// emission_means_into is bit-identical to emission_log_probs_into.
  void emission_log_probs_from_means_into(
      std::span<const ChunkObservation> observations,
      const math::Matrix& means, math::Matrix& out) const;

  /// emission_log_probs_from_means_into over row pointers (as produced
  /// by emission_mean_rows_into) instead of a dense matrix —
  /// bit-identical to the matrix overload for equal row values.
  void emission_log_probs_from_rows_into(
      std::span<const ChunkObservation> observations,
      std::span<const double* const> rows, math::Matrix& out) const;

  struct ViterbiResult {
    std::vector<std::size_t> states;  ///< MAP state index per chunk (I*)
    double log_likelihood = 0.0;      ///< log P(obs, I*) up to emission scaling
    /// viterbi_scores(n, i): best log score of any path ending in state i
    /// at chunk n. Column argmaxes give MAP end states for every prefix —
    /// used by interventional queries to avoid re-running per prefix.
    math::Matrix scores;
  };

  /// Paper Algorithm 3 (Viterbi with A^Δn), in log space.
  ViterbiResult viterbi(std::span<const ChunkObservation> observations) const;
  ViterbiResult viterbi(std::span<const ChunkObservation> observations,
                        Scratch& scratch) const;

  struct ForwardBackwardResult {
    /// gamma(n, i) = P(C_sn = value(i) | all observations).
    math::Matrix gamma;
    /// pair_totals[n] = Σ_{i,j} α_n(i) A^Δ(i,j) ẽ_{n+1}(j) β_{n+1}(j) for
    /// n = 0..N-2: the normalizer of the pair posterior Γ_n (paper
    /// Eq. 6). Γ itself is no longer materialized — the seed allocated
    /// N-1 k×k xi matrices that only the sampler and Baum-Welch read;
    /// both now consume the alpha/beta/emission rows in Scratch
    /// directly, and pair_posterior() rebuilds one Γ_n on demand.
    std::vector<double> pair_totals;
    /// log P(observations) under the model.
    double log_likelihood = 0.0;
  };

  /// Paper Algorithm 2 (scaled forward-backward with A^Δn).
  ForwardBackwardResult forward_backward(
      std::span<const ChunkObservation> observations) const;
  ForwardBackwardResult forward_backward(
      std::span<const ChunkObservation> observations, Scratch& scratch) const;

  /// Forward-backward with caller-supplied emission means (as produced
  /// by emission_means_into). The means are invariant in (A, u, σ), so
  /// Baum-Welch computes them once per session and reuses them across
  /// EM iterations. Bit-identical to forward_backward when the means
  /// match the model's.
  ForwardBackwardResult forward_backward_from_means(
      std::span<const ChunkObservation> observations,
      const math::Matrix& means, Scratch& scratch) const;

  /// One pair posterior Γ_n (k×k), rebuilt from the scratch arenas of
  /// the forward_backward call that produced `fb`. Bit-identical to the
  /// xi[n] matrix the seed materialized, degenerate fallback included.
  /// Compatibility accessor for tests/diagnostics; hot paths never
  /// build the matrix.
  math::Matrix pair_posterior(const ForwardBackwardResult& fb,
                              const Scratch& scratch, std::size_t n) const;

  /// Draws one posterior state sequence (paper Algorithm 1): pins or
  /// samples the final state, then samples backward through the pair
  /// posterior — reconstructed on the fly from alpha/beta/emission rows
  /// in `scratch`, never materializing Γ. Draws are bit-identical to the
  /// seed's xi-based sampler for the same Rng state. Requires viterbi,
  /// fb and scratch from the same observations (e.g. via infer_fused).
  std::vector<std::size_t> sample_posterior(
      const ViterbiResult& viterbi, const ForwardBackwardResult& fb,
      const Scratch& scratch, util::Rng& rng,
      const SamplerConfig& config = {}) const;

  /// Fused single pass: emission log-probs and window deltas are computed
  /// once and shared by the Viterbi and forward-backward recursions.
  /// Produces bit-identical results to running the two passes separately.
  struct InferencePass {
    ViterbiResult viterbi;
    ForwardBackwardResult forward_backward;
  };
  InferencePass infer_fused(std::span<const ChunkObservation> observations,
                            Scratch& scratch) const;

 private:
  /// Runs the batched estimator for one (already-quantized) observation
  /// and fills `entry`: `mean` always (k doubles), `plain` only under
  /// kMultiWindow. The three buffers are span-estimation scratch reused
  /// across rows. Shared by the matrix and row-span emission paths so
  /// both produce bit-identical entries.
  void compute_cache_entry(const ChunkObservation& obs,
                           EstimatorCache::Entry& entry,
                           std::vector<double>& y0_row,
                           std::vector<double>& span_cands,
                           std::vector<std::uint8_t>& span_gt1) const;

  /// Fills scratch.log_emission and scratch.deltas for `observations`.
  void prepare(std::span<const ChunkObservation> observations,
               Scratch& scratch) const;

  /// Recursions over the prepared scratch (log_emission + deltas).
  void viterbi_from(std::size_t n_obs, Scratch& scratch,
                    ViterbiResult& result) const;
  void forward_backward_from(std::size_t n_obs, Scratch& scratch,
                             ForwardBackwardResult& result) const;

  StateSpace space_;
  TransitionModel transition_;
  EmissionModel emission_;
  double delta_s_;
  bool multi_window_ = false;
  std::vector<double> candidate_values_;  ///< space_.values(), batch input
  std::uint64_t emission_table_id_ = 0;
  /// Precomputed kMultiWindow candidates: (i, span) -> expected average
  /// of E[C_{sn+m} | C_sn = value(i)] over m = 0..span-1. Columns 0 and 1
  /// hold the plain state value. Empty unless the estimator is
  /// kMultiWindow.
  math::Matrix span_candidates_;
};

}  // namespace veritas::core
