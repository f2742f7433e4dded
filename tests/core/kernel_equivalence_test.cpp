// SIMD/scalar kernel equivalence:
//
//  * raw-kernel level, k ∈ {1, 3, 8, 17, 32}: the viterbi / forward /
//    backward steps must be *bit-identical* between tables (the SIMD
//    kernels vectorize across outputs and broadcast the sequential
//    input, preserving each output's accumulation order); the fused
//    pair-posterior normalizer and exp rows agree within tight
//    tolerances. Non-lane-multiple k exercises the padded pad columns.
//  * Ehmm level, k ∈ {3, 8, 17, 32}: identical Viterbi paths, scores
//    and backpointer-driven decisions, posteriors within 1e-9 (observed
//    ~1e-13: only the exp approximation and the pair reduction differ),
//    at 1 and 4 inference threads.
//  * the configurable A^Δ slot window: deltas beyond the lock-free
//    slots run through the same kernels on memoized entries, so every
//    inference result is bit-identical across window sizes on both
//    tiers.
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/inference_engine.hpp"
#include "core/test_helpers.hpp"
#include "core/veritas.hpp"
#include "math/simd_kernels.hpp"
#include "trace/trace_generator.hpp"

namespace sk = veritas::math::simd_kernels;

namespace {

using namespace veritas;
using core::ChunkObservation;
using core::Ehmm;

bool simd_available() { return sk::simd_ops() != nullptr; }

/// Random row-stochastic transition over k states (k = 1 allowed).
core::TransitionModel random_transition(std::size_t k, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(0.05, 1.0);
  math::Matrix a(k, k, 0.0);
  std::vector<double> initial(k, 0.0);
  double init_sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      a(i, j) = dist(rng);
      row_sum += a(i, j);
    }
    for (std::size_t j = 0; j < k; ++j) a(i, j) /= row_sum;
    initial[i] = dist(rng);
    init_sum += initial[i];
  }
  for (double& u : initial) u /= init_sum;
  return core::TransitionModel(std::move(a), std::move(initial));
}

/// Padded random row: logical entries from dist, pads = `pad`.
std::vector<double> padded_row(std::size_t k, double pad, std::mt19937_64& rng,
                               double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  std::vector<double> row(math::padded_cols(k), pad);
  for (std::size_t i = 0; i < k; ++i) row[i] = dist(rng);
  return row;
}

class KernelEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelEquivalence, RawKernelsMatchScalar) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD table in this build";
  const std::size_t k = GetParam();
  const std::size_t stride = math::padded_cols(k);
  core::TransitionModel model = random_transition(k, 100 + k);
  model.precompute_powers(4);
  const sk::DeltaTables tables = model.power_view(2);
  ASSERT_EQ(tables.stride, stride);

  const sk::KernelOps& scalar = sk::scalar_ops();
  const sk::KernelOps& simd = *sk::simd_ops();
  std::mt19937_64 rng(900 + k);

  for (int round = 0; round < 25; ++round) {
    // Log-domain inputs for viterbi (pads -inf), probability-domain for
    // the sum-product kernels (pads 0).
    const std::vector<double> prev_log =
        padded_row(k, -std::numeric_limits<double>::infinity(), rng, -40.0,
                   0.0);
    const std::vector<double> e_n =
        padded_row(k, -std::numeric_limits<double>::infinity(), rng, -40.0,
                   0.0);
    const std::vector<double> prev_prob = padded_row(k, 0.0, rng, 0.0, 1.0);
    const std::vector<double> em = padded_row(k, 0.0, rng, 0.0, 1.0);
    const std::vector<double> beta = padded_row(k, 0.0, rng, 0.0, 2.0);
    const std::vector<double> alpha = padded_row(k, 0.0, rng, 0.0, 1.0);

    // Viterbi: scores and backpointers bit-identical.
    std::vector<double> curr_a(stride, 0.0), curr_b(stride, 0.0);
    std::vector<std::uint32_t> back_a(stride, 0), back_b(stride, 0);
    scalar.viterbi_step(prev_log.data(), tables, k, e_n.data(),
                        curr_a.data(), back_a.data());
    simd.viterbi_step(prev_log.data(), tables, k, e_n.data(), curr_b.data(),
                      back_b.data());
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(curr_a[i], curr_b[i]) << "k=" << k << " i=" << i;
      EXPECT_EQ(back_a[i], back_b[i]) << "k=" << k << " i=" << i;
    }

    // Forward: bit-identical.
    std::vector<double> row_a(stride, 0.0), row_b(stride, 0.0);
    scalar.forward_step(prev_prob.data(), tables, k, em.data(),
                        row_a.data());
    simd.forward_step(prev_prob.data(), tables, k, em.data(), row_b.data());
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(row_a[i], row_b[i]) << "k=" << k << " i=" << i;
    }

    // Backward: beta bit-identical; fused pair total within tolerance
    // of the scalar (historical-order) accumulation.
    std::vector<double> beta_a(stride, 0.0), beta_b(stride, 0.0);
    double pair_a = 0.0, pair_b = 0.0;
    scalar.backward_step(tables, k, em.data(), beta.data(), 1.375,
                         beta_a.data(), alpha.data(), &pair_a);
    simd.backward_step(tables, k, em.data(), beta.data(), 1.375,
                       beta_b.data(), alpha.data(), &pair_b);
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(beta_a[i], beta_b[i]) << "k=" << k << " i=" << i;
    }
    EXPECT_NEAR(pair_a, pair_b, 1e-12 * std::max(1.0, std::abs(pair_a)));

    // exp rows (full padded stride, -inf pads -> exact 0).
    std::vector<double> em_a(stride, -1.0), em_b(stride, -1.0);
    scalar.exp_rows(e_n.data(), -3.0, stride, em_a.data());
    simd.exp_rows(e_n.data(), -3.0, stride, em_b.data());
    for (std::size_t i = 0; i < stride; ++i) {
      EXPECT_NEAR(em_a[i], em_b[i], 5e-15 * em_a[i] + 0.0)
          << "k=" << k << " i=" << i;
    }
    for (std::size_t i = k; i < stride; ++i) EXPECT_EQ(em_b[i], 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(StateCounts, KernelEquivalence,
                         ::testing::Values(1, 3, 8, 17, 32));

/// Ehmm over k states (k = ceil(max/eps) + 1 with eps 0.5).
core::VeritasConfig config_for_states(std::size_t k) {
  core::VeritasConfig cfg;
  cfg.epsilon_mbps = 0.5;
  cfg.max_mbps = 0.5 * static_cast<double>(k - 1);
  return cfg;
}

std::vector<sim::SessionLog> test_logs() {
  std::vector<sim::SessionLog> logs;
  for (const std::uint64_t seed : {11ull, 29ull}) {
    const auto gtbw = trace::make_traces(trace::TraceFamily::kWideRange, 1,
                                         seed)[0];
    logs.push_back(core::testing::deployed_log(gtbw, 40));
  }
  return logs;
}

class EhmmEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EhmmEquivalence, SimdMatchesScalarAcrossThreads) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD table in this build";
  const std::size_t k = GetParam();
  const core::VeritasConfig cfg = config_for_states(k);
  const core::InferenceEngine engine(cfg);
  ASSERT_EQ(engine.ehmm().space().size(), k);
  const auto logs = test_logs();

  std::vector<core::VeritasResult> scalar_results;
  {
    const sk::ScopedMode mode(sk::Mode::kForceScalar);
    for (const auto& log : logs) scalar_results.push_back(engine.infer(log));
  }

  const sk::ScopedMode mode(sk::Mode::kForceSimd);
  for (const std::size_t threads : {1u, 4u}) {
    const std::vector<core::VeritasResult> simd_results =
        engine.infer_batch(logs, threads);
    ASSERT_EQ(simd_results.size(), scalar_results.size());
    for (std::size_t s = 0; s < logs.size(); ++s) {
      const core::VeritasResult& a = scalar_results[s];
      const core::VeritasResult& b = simd_results[s];
      // Viterbi decisions identical (the max-plus kernel is
      // bit-identical and emissions are bitwise equal).
      ASSERT_EQ(a.map_states_mbps.size(), b.map_states_mbps.size());
      for (std::size_t n = 0; n < a.map_states_mbps.size(); ++n) {
        EXPECT_EQ(a.map_states_mbps[n], b.map_states_mbps[n])
            << "k=" << k << " session=" << s << " n=" << n;
      }
      // Posteriors within the advertised tolerance (issue: 1e-9; the
      // only divergences are the exp approximation and the pair-total
      // lane reduction).
      EXPECT_LE(a.posterior_marginals.max_abs_diff(b.posterior_marginals),
                1e-9)
          << "k=" << k << " session=" << s;
      EXPECT_NEAR(a.log_likelihood, b.log_likelihood,
                  1e-9 * std::abs(a.log_likelihood))
          << "k=" << k << " session=" << s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(StateCounts, EhmmEquivalence,
                         ::testing::Values(3, 8, 17, 32));

// Default dispatch resolves to the vector table whenever it is compiled
// in and the CPU has its ISA, and backend_name() reports it.
TEST(KernelDispatch, AutoSelectsSimdTable) {
  if (std::getenv("VERITAS_SIMD") != nullptr) {
    GTEST_SKIP() << "VERITAS_SIMD overrides auto dispatch in this run";
  }
  const sk::ScopedMode mode(sk::Mode::kAuto);
  if (simd_available()) {
    EXPECT_STREQ(sk::backend_name(), sk::simd_ops()->name);
  } else {
    EXPECT_STREQ(sk::backend_name(), "scalar");
  }
}

TEST(EhmmEquivalence, MultiWindowEstimatorWithinTolerance) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD table in this build";
  core::VeritasConfig cfg;
  cfg.estimator = core::EmissionModel::Estimator::kMultiWindow;
  const core::InferenceEngine engine(cfg);
  const auto logs = test_logs();
  for (const auto& log : logs) {
    core::VeritasResult a, b;
    {
      const sk::ScopedMode mode(sk::Mode::kForceScalar);
      a = engine.infer(log);
    }
    {
      const sk::ScopedMode mode(sk::Mode::kForceSimd);
      b = engine.infer(log);
    }
    for (std::size_t n = 0; n < a.map_states_mbps.size(); ++n) {
      EXPECT_EQ(a.map_states_mbps[n], b.map_states_mbps[n]);
    }
    EXPECT_LE(a.posterior_marginals.max_abs_diff(b.posterior_marginals),
              1e-9);
  }
}

Ehmm tridiagonal_ehmm(std::size_t powers) {
  core::StateSpace space(0.5, 10.0);
  core::TransitionModel transition =
      core::TransitionModel::tridiagonal(space.size());
  core::EmissionModel emission(0.5);
  return Ehmm(std::move(space), std::move(transition), std::move(emission),
              5.0, powers);
}

/// Every inference output of `small` and `large` on `obs` must be
/// bit-identical under the current dispatch mode: Viterbi states and
/// scores, gamma, log-likelihood, pair totals and sampled paths.
void expect_window_independent(const Ehmm& small, const Ehmm& large,
                               const std::vector<ChunkObservation>& obs) {
  Ehmm::Scratch scratch_a, scratch_b;
  const Ehmm::InferencePass a = small.infer_fused(obs, scratch_a);
  const Ehmm::InferencePass b = large.infer_fused(obs, scratch_b);
  EXPECT_EQ(a.viterbi.states, b.viterbi.states);
  EXPECT_EQ(a.viterbi.scores.max_abs_diff(b.viterbi.scores), 0.0);
  EXPECT_EQ(a.viterbi.log_likelihood, b.viterbi.log_likelihood);
  EXPECT_EQ(a.forward_backward.gamma.max_abs_diff(b.forward_backward.gamma),
            0.0);
  EXPECT_EQ(a.forward_backward.log_likelihood,
            b.forward_backward.log_likelihood);
  EXPECT_EQ(a.forward_backward.pair_totals, b.forward_backward.pair_totals);
  for (const std::uint64_t seed : {42ull, 7ull}) {
    util::Rng rng_a(seed), rng_b(seed);
    EXPECT_EQ(
        small.sample_posterior(a.viterbi, a.forward_backward, scratch_a,
                               rng_a),
        large.sample_posterior(b.viterbi, b.forward_backward, scratch_b,
                               rng_b))
        << "seed " << seed;
  }
}

std::vector<sk::Mode> available_modes() {
  std::vector<sk::Mode> modes{sk::Mode::kForceScalar};
  if (simd_available()) modes.push_back(sk::Mode::kForceSimd);
  return modes;
}

// A tiny precompute window sends the long-gap deltas to the memoized
// entries — results must be bit-identical to the full slot window, in
// both dispatch modes (the memo holds the same padded layouts, so the
// same kernels run).
TEST(PrecomputedPowerWindow, SmallWindowBitIdenticalToLarge) {
  using core::testing::warm_observation;
  // Session with rebuffer-sized gaps: window deltas 0, 1, 2, 5, 13 with
  // δ = 5 s — everything past Δ=1 is beyond the small table.
  std::vector<ChunkObservation> obs;
  obs.push_back(warm_observation(0.0, 2.0));
  obs.push_back(warm_observation(3.0, 2.5));
  obs.push_back(warm_observation(8.0, 3.0));
  obs.push_back(warm_observation(18.0, 2.0));
  obs.push_back(warm_observation(44.0, 1.5));
  obs.push_back(warm_observation(110.0, 2.5));

  const Ehmm small = tridiagonal_ehmm(1);
  const Ehmm full = tridiagonal_ehmm(64);
  EXPECT_EQ(small.transition().precomputed_powers(), 2u);

  for (const sk::Mode m : available_modes()) {
    const sk::ScopedMode mode(m);
    expect_window_independent(small, full, obs);
  }
}

// A default-config engine on a session with a gap longer than its
// 64-window table: the long delta runs from the memo and must match the
// same model built with a 512-slot window, where it has a slot, bit for
// bit on both tiers.
TEST(PrecomputedPowerWindow, LongGapMatchesLargeTable) {
  using core::testing::warm_observation;
  std::vector<ChunkObservation> obs;
  obs.push_back(warm_observation(0.0, 2.0));
  obs.push_back(warm_observation(4.0, 2.5));
  obs.push_back(warm_observation(8.0, 3.0));
  // 400 s later: Δ = 80 windows with δ = 5 s.
  obs.push_back(warm_observation(408.0, 1.5));
  obs.push_back(warm_observation(412.0, 2.5));
  obs.push_back(warm_observation(416.0, 2.0));

  const core::InferenceEngine default_engine{core::VeritasConfig{}};
  const Ehmm& by_default = default_engine.ehmm();
  const Ehmm large = tridiagonal_ehmm(512);  // the default config's model
  ASSERT_EQ(by_default.window_deltas(obs)[3], 80u);
  ASSERT_LT(by_default.transition().precomputed_powers(), 80u);
  ASSERT_GT(large.transition().precomputed_powers(), 80u);

  for (const sk::Mode m : available_modes()) {
    const sk::ScopedMode mode(m);
    expect_window_independent(by_default, large, obs);
  }
}

}  // namespace
