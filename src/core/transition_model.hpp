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
// Entries are built on first use, never at construction: an engine
// pays only for the deltas its sessions actually look up, and results
// do not depend on lookup order, on which thread builds an entry, or on
// whether the model is fresh or warm (an entry depends only on A and Δ).
// precompute_powers() sizes a lock-free slot array for Δ = 0..max; a
// hit there is one acquire load, and a first miss builds the entry and
// publishes it with a compare-exchange (a racing loser frees its copy).
// Deltas beyond the slots are built in the same layout on first use and
// kept in a read-mostly shared_mutex memo (shared-lock hits,
// exclusive-lock first-compute), so arbitrarily long session gaps run
// through the same kernels and give the same results. The slot count
// therefore only decides which lookups are lock-free; it never changes
// an inference result (engines use Ehmm::kDefaultPrecomputedPowers).
#pragma once

#include <atomic>
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

  /// Copies deep-copy only the entries already built; a move leaves the
  /// source with no slots and no memo.
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

  /// Sizes the lock-free slot array to Δ = 0..max_delta; builds no
  /// entry. Not thread-safe; call once (e.g. at Ehmm construction)
  /// before sharing the model across threads. Idempotent: only grows
  /// the array, keeping the entries already built.
  void precompute_powers(std::size_t max_delta);

  /// Number of slots (Δ < precomputed_powers() is lock-free).
  std::size_t precomputed_powers() const noexcept { return slots_.size(); }

  /// A^delta (delta = 0 yields the identity), rows padded, built on
  /// first use. Lock-free for deltas inside the slot array; beyond it, a
  /// shared-lock memo find with exclusive-lock first-compute.
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

  /// Slot array for Δ < size(): null until the first lookup publishes
  /// an entry, which the array then owns (freed with it).
  class PowerSlots {
   public:
    explicit PowerSlots(std::size_t count = 0) : slots_(count) {}
    PowerSlots(PowerSlots&&) noexcept = default;
    PowerSlots& operator=(PowerSlots&& other) noexcept {
      const PowerSlots old(std::move(*this));  // frees our entries
      slots_.swap(other.slots_);
      return *this;
    }
    ~PowerSlots() {
      for (auto& slot : slots_) delete slot.load(std::memory_order_relaxed);
    }
    std::size_t size() const noexcept { return slots_.size(); }
    std::atomic<const PowerEntry*>& operator[](std::size_t i) noexcept {
      return slots_[i];
    }

   private:
    std::vector<std::atomic<const PowerEntry*>> slots_;
  };

  math::Matrix a_;
  std::vector<double> initial_;
  /// index = Δ; each entry is immutable once published. mutable: const
  /// lookups publish first-use entries.
  mutable PowerSlots slots_;
  /// Read-mostly memo guard: after a gap length is memoized once, every
  /// later lookup of it is a shared-lock map find, so concurrent serving
  /// lanes replaying long-gap sessions no longer serialize on each
  /// other. Writers (first sighting of a delta) take the exclusive lock
  /// and re-check under it.
  mutable std::shared_mutex overflow_mutex_;
  /// Memo for Δ beyond the slot array. std::map: node stability keeps
  /// returned references valid across later insertions.
  mutable std::map<std::size_t, PowerEntry> overflow_;
};

}  // namespace veritas::core
