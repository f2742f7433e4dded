// Golden equivalence and determinism tests for the fused inference
// engine: the single-pass path must be bit-identical to the seed
// two-pass path (separate Viterbi and forward-backward runs, each with
// its own emission computation), and infer_batch must be independent of
// thread count.
#include "core/inference_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/test_helpers.hpp"
#include "core/veritas.hpp"
#include "trace/trace_generator.hpp"
#include "util/expects.hpp"

namespace veritas::core {
namespace {

using testing::deployed_log;

std::vector<VeritasConfig> golden_configs() {
  VeritasConfig full;  // paper defaults
  VeritasConfig multi_window;
  multi_window.estimator = EmissionModel::Estimator::kMultiWindow;
  VeritasConfig banded;
  banded.prior = TransitionPrior::kBanded;
  banded.sampler.last_state = SamplerConfig::LastState::kPosterior;
  VeritasConfig no_tcp;
  no_tcp.estimator = EmissionModel::Estimator::kNoTcpState;
  no_tcp.interpolation = Interpolation::kHold;
  return {full, multi_window, banded, no_tcp};
}

sim::SessionLog shared_log(std::uint64_t seed = 2024) {
  const auto traces = trace::make_traces(trace::TraceFamily::kFccLike, 1, seed);
  return deployed_log(traces[0]);
}

void expect_bit_identical(const Ehmm::ViterbiResult& a,
                          const Ehmm::ViterbiResult& b) {
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.log_likelihood, b.log_likelihood);  // exact, not NEAR
  ASSERT_EQ(a.scores.rows(), b.scores.rows());
  EXPECT_EQ(a.scores.max_abs_diff(b.scores), 0.0);
}

void expect_bit_identical(const Ehmm::ForwardBackwardResult& a,
                          const Ehmm::ForwardBackwardResult& b) {
  EXPECT_EQ(a.log_likelihood, b.log_likelihood);
  ASSERT_EQ(a.gamma.rows(), b.gamma.rows());
  EXPECT_EQ(a.gamma.max_abs_diff(b.gamma), 0.0);
  ASSERT_EQ(a.pair_totals.size(), b.pair_totals.size());
  for (std::size_t n = 0; n < a.pair_totals.size(); ++n) {
    EXPECT_EQ(a.pair_totals[n], b.pair_totals[n]) << "pair total " << n;
  }
}

void expect_bit_identical(const VeritasResult& a, const VeritasResult& b) {
  EXPECT_EQ(a.log_likelihood, b.log_likelihood);
  EXPECT_EQ(a.map_states_mbps, b.map_states_mbps);
  EXPECT_EQ(a.posterior_marginals.max_abs_diff(b.posterior_marginals), 0.0);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  auto expect_trace_equal = [](const trace::BandwidthTrace& x,
                               const trace::BandwidthTrace& y) {
    ASSERT_EQ(x.windows(), y.windows());
    for (std::size_t w = 0; w < x.windows(); ++w) {
      EXPECT_EQ(x.values_mbps()[w], y.values_mbps()[w]);
    }
  };
  expect_trace_equal(a.map_trace, b.map_trace);
  for (std::size_t s = 0; s < a.samples.size(); ++s) {
    expect_trace_equal(a.samples[s], b.samples[s]);
  }
}

TEST(InferenceEngine, FusedPassMatchesSeedTwoPassBitExactly) {
  const sim::SessionLog log = shared_log();
  for (const VeritasConfig& cfg : golden_configs()) {
    const InferenceEngine engine(cfg);
    const auto observations = observations_from_log(log);

    // Seed two-pass path: independent runs, each recomputing emissions.
    const Ehmm& ehmm = engine.ehmm();
    const Ehmm::ViterbiResult viterbi = ehmm.viterbi(observations);
    const Ehmm::ForwardBackwardResult fb = ehmm.forward_backward(observations);

    const Ehmm::InferencePass pass = engine.infer_session(observations);
    expect_bit_identical(pass.viterbi, viterbi);
    expect_bit_identical(pass.forward_backward, fb);
  }
}

TEST(InferenceEngine, ScratchReuseAcrossSessionsIsClean) {
  // One scratch arena reused across sessions of different lengths must
  // not leak state between sessions.
  const InferenceEngine engine(VeritasConfig{});
  Ehmm::Scratch scratch;
  const sim::SessionLog long_log = shared_log(2024);
  const sim::SessionLog other_log = shared_log(7);

  const auto long_obs = observations_from_log(long_log);
  const auto short_obs = std::vector<ChunkObservation>(
      long_obs.begin(), long_obs.begin() + 5);

  const auto warm = engine.infer_session(observations_from_log(other_log),
                                         scratch);
  (void)warm;
  const auto reused_short = engine.infer_session(short_obs, scratch);
  const auto fresh_short = engine.infer_session(short_obs);
  expect_bit_identical(reused_short.viterbi, fresh_short.viterbi);
  expect_bit_identical(reused_short.forward_backward,
                       fresh_short.forward_backward);

  const auto reused_long = engine.infer_session(long_obs, scratch);
  const auto fresh_long = engine.infer_session(long_obs);
  expect_bit_identical(reused_long.viterbi, fresh_long.viterbi);
  expect_bit_identical(reused_long.forward_backward,
                       fresh_long.forward_backward);
}

TEST(InferenceEngine, SeededSamplesMatchFacade) {
  // The facade delegates to the engine; both must reproduce the seed
  // sampling protocol (Rng(seed).fork(k) per sample) exactly.
  const sim::SessionLog log = shared_log();
  for (const VeritasConfig& cfg : golden_configs()) {
    const Veritas facade(cfg);
    const InferenceEngine engine(cfg);
    expect_bit_identical(facade.infer(log), engine.infer(log));
  }
}

TEST(InferenceEngine, BatchMatchesSerialForEveryThreadCount) {
  std::vector<sim::SessionLog> logs;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    logs.push_back(shared_log(seed));
  }
  const InferenceEngine engine(VeritasConfig{});

  std::vector<VeritasResult> serial;
  serial.reserve(logs.size());
  for (const auto& log : logs) serial.push_back(engine.infer(log));

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const std::vector<VeritasResult> batch =
        engine.infer_batch(logs, threads);
    ASSERT_EQ(batch.size(), serial.size()) << threads << " threads";
    for (std::size_t i = 0; i < batch.size(); ++i) {
      expect_bit_identical(batch[i], serial[i]);
    }
  }
}

TEST(InferenceEngine, BatchOfEmptySetIsEmpty) {
  const InferenceEngine engine(VeritasConfig{});
  EXPECT_TRUE(engine.infer_batch({}).empty());
}

TEST(InferenceEngine, SmallPowerTableFallsBackBitExactly) {
  // Deltas beyond the slot window are served from the transition model's
  // memo in the same layout and run the same kernels; results must not
  // change.
  const sim::SessionLog log = shared_log();
  const VeritasConfig cfg;
  const StateSpace space(cfg.epsilon_mbps, cfg.max_mbps);
  // The default config's model with slots for only A^0 and A^1.
  const Ehmm small(space, TransitionModel::tridiagonal(space.size()),
                   EmissionModel(cfg.sigma_mbps), cfg.delta_s,
                   /*precompute_powers=*/1);
  const InferenceEngine big(cfg);
  const auto observations = observations_from_log(log);

  Ehmm::Scratch scratch;
  const auto pass_small = small.infer_fused(observations, scratch);
  const auto pass_big = big.infer_session(observations);
  expect_bit_identical(pass_small.viterbi, pass_big.viterbi);
  expect_bit_identical(pass_small.forward_backward, pass_big.forward_backward);
}

TEST(InferenceEngine, RejectsInvalidConfig) {
  VeritasConfig bad;
  bad.delta_s = 0.0;
  EXPECT_THROW(InferenceEngine{bad}, veritas::ContractViolation);
  bad = VeritasConfig{};
  bad.num_samples = 0;
  EXPECT_THROW(InferenceEngine{bad}, veritas::ContractViolation);
}

TEST(InferenceEngine, SharedAcrossThreadsViaFacade) {
  // engine_ptr() hands out shared ownership; results through the shared
  // engine equal results through the facade.
  const Veritas facade;
  const std::shared_ptr<const InferenceEngine> engine = facade.engine_ptr();
  const sim::SessionLog log = shared_log();
  expect_bit_identical(facade.infer(log), engine->infer(log));
}

std::vector<sim::SessionLog> first_use_logs() {
  // Steady sessions only look up Δ 0 and 1; two paused copies shift
  // their later chunks so the gaps reach Δ ≈ 24 and Δ ≈ 80 (past the
  // default 64-slot window, into the overflow memo).
  std::vector<sim::SessionLog> logs;
  for (const std::uint64_t seed : {3u, 11u, 2024u}) {
    logs.push_back(shared_log(seed));
  }
  for (const double pause_s : {120.0, 400.0}) {
    sim::SessionLog paused = logs.back();
    for (std::size_t n = paused.chunks.size() / 2; n < paused.chunks.size();
         ++n) {
      paused.chunks[n].start_s += pause_s;
      paused.chunks[n].end_s += pause_s;
    }
    logs.push_back(std::move(paused));
  }
  return logs;
}

TEST(InferenceEngine, FreshEngineMatchesWarmEngineBitExactly) {
  // A what-if query builds its engine per call (so every A^Δ entry it
  // touches is built on first use); a long-lived engine serves the same
  // query from entries other sessions built. Both must give the same
  // answer bit for bit, whichever session built an entry first.
  const std::vector<sim::SessionLog> logs = first_use_logs();
  for (const VeritasConfig& cfg : golden_configs()) {
    const InferenceEngine warm(cfg);
    Ehmm::Scratch warm_scratch;
    for (const auto& log : logs) (void)warm.infer(log, warm_scratch);
    for (std::size_t i = 0; i < logs.size(); ++i) {
      for (const std::uint64_t seed : {1u, 77u, 90210u}) {
        const std::uint64_t sample_seed = cfg.seed ^ seed;
        Ehmm::Scratch scratch;
        const VeritasResult fresh =
            InferenceEngine(cfg).infer_with_seed(logs[i], scratch,
                                                 sample_seed);
        SCOPED_TRACE(::testing::Message() << "log " << i << ", seed " << seed);
        expect_bit_identical(
            fresh, warm.infer_with_seed(logs[i], warm_scratch, sample_seed));
        VeritasConfig seeded = cfg;
        seeded.seed = sample_seed;
        expect_bit_identical(fresh, InferenceEngine(seeded).infer(logs[i]));
      }
    }
  }
}

TEST(InferenceEngine, FreshEngineBatchMatchesSerial) {
  // On a fresh engine the lanes race first use of the A^Δ entries
  // inside the recursions; the results must not depend on who won.
  const std::vector<sim::SessionLog> logs = first_use_logs();
  const InferenceEngine serial_engine(VeritasConfig{});
  std::vector<VeritasResult> serial;
  for (const auto& log : logs) serial.push_back(serial_engine.infer(log));

  const InferenceEngine fresh(VeritasConfig{});
  const std::vector<VeritasResult> batch = fresh.infer_batch(logs, 4);
  ASSERT_EQ(batch.size(), serial.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "log " << i);
    expect_bit_identical(batch[i], serial[i]);
  }
}

}  // namespace
}  // namespace veritas::core
