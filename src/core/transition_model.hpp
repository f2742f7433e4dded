// GTBW transition model (paper Eq. 2): a row-stochastic matrix A over the
// quantized state space plus an initial distribution u.
//
// The paper's evaluation uses a tridiagonal A (bandwidth prefers to stay,
// may drift one ε step per δ window) and a uniform u. Embedded
// transitions between chunks separated by Δ windows use A^Δ (paper §3.2,
// "Evolution of the embedded GTBW").
//
// Every power is served in one layout: A^Δ plus transposed /
// elementwise-log variants, all with rows padded to the row quantum
// (math::kRowPadDoubles) and pad columns holding neutral elements (0
// for probabilities, -inf for logs) so vector kernels can load whole
// lanes without masking. The scalar recursions consume the transposed
// layouts with contiguous inner loops; the SIMD recursions stream the
// untransposed (or, backward, transposed) rows in column blocks.
// precompute_powers() builds a dense immutable table of these entries
// for Δ = 0..max, whose lookups are lock-free and safe to share across
// threads. Deltas beyond the table are built in the same layout on first
// use and kept in a read-mostly shared_mutex memo (shared-lock hits,
// exclusive-lock first-compute), so arbitrarily long session gaps run
// through the same kernels and give the same results. The table size
// (VeritasConfig::precomputed_powers) therefore only trades memory and
// build time against lookups; it never changes an inference result.
#pragma once

#include <cstddef>
#include <map>
#include <shared_mutex>
#include <span>
#include <vector>

#include "math/matrix.hpp"
#include "math/simd_kernels.hpp"

namespace veritas::core {

/// Priors available for A (ablation bench: bench_ablate_transition).
enum class TransitionPrior {
  kTridiagonal,  ///< paper default: stay / +-1 step
  kUniform,      ///< no temporal structure (what Baseline implicitly assumes)
  kBanded,       ///< geometric decay over a wider band
};

class TransitionModel {
 public:
  /// Takes an arbitrary row-stochastic A and initial distribution u of
  /// matching size.
  TransitionModel(math::Matrix a, std::vector<double> initial);

  TransitionModel(const TransitionModel& other);
  TransitionModel(TransitionModel&& other) noexcept;
  TransitionModel& operator=(const TransitionModel& other);
  TransitionModel& operator=(TransitionModel&& other) noexcept;

  /// Paper default: P(stay) = stay_prob, P(+-ε) split evenly from the
  /// rest; rows renormalized at the boundaries. Uniform u.
  static TransitionModel tridiagonal(std::size_t states,
                                     double stay_prob = 0.8);

  /// Uniform A and u.
  static TransitionModel uniform(std::size_t states);

  /// Band of half-width `band` with geometric decay `decay` per step off
  /// the diagonal. Uniform u.
  static TransitionModel banded(std::size_t states, std::size_t band,
                                double decay = 0.5);

  std::size_t states() const noexcept { return a_.rows(); }
  const math::Matrix& matrix() const noexcept { return a_; }
  std::span<const double> initial() const noexcept { return initial_; }

  /// Builds the dense power table for Δ = 0..max_delta. Not thread-safe;
  /// call once (e.g. at Ehmm construction) before sharing the model
  /// across threads. Idempotent: only grows the table.
  void precompute_powers(std::size_t max_delta);

  /// Number of dense entries (Δ < precomputed_powers() is lock-free).
  std::size_t precomputed_powers() const noexcept { return dense_.size(); }

  /// A^delta (delta = 0 yields the identity), rows padded. Lock-free for
  /// deltas in the precomputed table; beyond it, a shared-lock memo find
  /// with exclusive-lock first-compute.
  const math::Matrix& power(std::size_t delta) const;

  /// The padded kernel layouts of A^delta (p, transposed, log_p, log_t),
  /// every pointer non-null for every delta. Same lookup rules as
  /// power(); the pointers stay valid for the model's lifetime.
  math::simd_kernels::DeltaTables power_view(std::size_t delta) const;

 private:
  struct PowerEntry {
    math::Matrix p;
    math::Matrix transposed;      ///< T(i, j) = A^Δ(j, i)
    math::Matrix log_p;           ///< log A^Δ(i, j)
    math::Matrix log_transposed;  ///< L(i, j) = log A^Δ(j, i)
  };
  PowerEntry make_entry(std::size_t delta) const;
  const PowerEntry& entry(std::size_t delta) const;

  math::Matrix a_;
  std::vector<double> initial_;
  std::vector<PowerEntry> dense_;  ///< index = Δ; immutable once built
  /// Read-mostly memo guard: after a gap length is memoized once, every
  /// later lookup of it is a shared-lock map find, so concurrent serving
  /// lanes replaying long-gap sessions no longer serialize on each
  /// other. Writers (first sighting of a delta) take the exclusive lock
  /// and re-check under it.
  mutable std::shared_mutex overflow_mutex_;
  /// Memo for Δ beyond the dense table. std::map: node stability keeps
  /// returned references valid across later insertions.
  mutable std::map<std::size_t, PowerEntry> overflow_;
};

}  // namespace veritas::core
