#include "core/inference_engine.hpp"

#include <algorithm>
#include <utility>

#include "util/expects.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace veritas::core {

namespace {

Ehmm build_ehmm(const VeritasConfig& config) {
  StateSpace space(config.epsilon_mbps, config.max_mbps);
  TransitionModel transition = [&] {
    switch (config.prior) {
      case TransitionPrior::kUniform:
        return TransitionModel::uniform(space.size());
      case TransitionPrior::kBanded:
        return TransitionModel::banded(space.size(), config.band_width);
      case TransitionPrior::kTridiagonal:
      default:
        return TransitionModel::tridiagonal(space.size(),
                                            config.transition_stay);
    }
  }();
  EmissionModel emission(config.sigma_mbps, config.tcp, config.estimator);
  return Ehmm(std::move(space), std::move(transition), std::move(emission),
              config.delta_s);
}

}  // namespace

InferenceEngine::InferenceEngine(VeritasConfig config)
    : config_([&] {
        VERITAS_EXPECTS(config.delta_s > 0.0);
        VERITAS_EXPECTS(config.epsilon_mbps > 0.0);
        VERITAS_EXPECTS(config.sigma_mbps > 0.0);
        VERITAS_EXPECTS(config.max_mbps >= config.epsilon_mbps);
        VERITAS_EXPECTS(config.num_samples >= 1);
        return config;
      }()),
      ehmm_(build_ehmm(config_)) {
  if (config_.estimator_cache_bytes > 0) {
    EstimatorCache::Config cache_config;
    cache_config.capacity = EstimatorCache::entries_for_bytes(
        config_.estimator_cache_bytes, ehmm_.space().size(),
        config_.estimator == EmissionModel::Estimator::kMultiWindow);
    cache_config.quantize_mantissa_bits = config_.estimator_cache_quant_bits;
    estimator_cache_ = std::make_shared<EstimatorCache>(cache_config);
  }
}

void InferenceEngine::attach_cache(Ehmm::Scratch& scratch) const {
  // Overwrite unconditionally — including with null: a serving lane's
  // scratch hops between shards, and each job must consult exactly the
  // cache of the engine it pinned. Leaving a previous engine's cache
  // attached when this engine disabled its own would make results
  // depend on lane history (that cache may quantize), consume another
  // shard's budget, and pin a removed shard's memory. With null, the
  // Ehmm falls back to a fresh per-call private memo — the documented
  // cache-disabled semantics.
  scratch.estimator_cache = estimator_cache_;
}

Ehmm::InferencePass InferenceEngine::infer_session(
    std::span<const ChunkObservation> observations,
    Ehmm::Scratch& scratch) const {
  attach_cache(scratch);
  return ehmm_.infer_fused(observations, scratch);
}

Ehmm::InferencePass InferenceEngine::infer_session(
    std::span<const ChunkObservation> observations) const {
  Ehmm::Scratch scratch;
  return infer_session(observations, scratch);
}

VeritasResult InferenceEngine::infer(const sim::SessionLog& log,
                                     Ehmm::Scratch& scratch) const {
  return infer_with_seed(log, scratch, config_.seed);
}

VeritasResult InferenceEngine::infer_with_seed(
    const sim::SessionLog& log, Ehmm::Scratch& scratch,
    std::uint64_t sample_seed) const {
  VERITAS_TRACE_SPAN("engine.infer", "engine");
  attach_cache(scratch);
  const std::vector<ChunkObservation> observations =
      observations_from_log(log);
  const Ehmm::InferencePass pass = ehmm_.infer_fused(observations, scratch);
  const Ehmm::ViterbiResult& viterbi = pass.viterbi;
  const Ehmm::ForwardBackwardResult& fb = pass.forward_backward;

  const double total_duration = observations.back().end_s + config_.delta_s;

  VeritasResult result;
  result.log_likelihood = fb.log_likelihood;
  result.posterior_marginals = fb.gamma;
  result.map_states_mbps.reserve(observations.size());
  for (const std::size_t s : viterbi.states) {
    result.map_states_mbps.push_back(ehmm_.space().value(s));
  }
  result.map_trace =
      states_to_trace(ehmm_.space(), viterbi.states, observations,
                      config_.delta_s, total_duration, config_.interpolation);

  // Per-index forked streams: sample k is identical no matter how many
  // samples the config asks for.
  util::Rng rng(sample_seed);
  result.samples.reserve(config_.num_samples);
  {
    VERITAS_TRACE_SPAN("engine.sample_posterior", "engine");
    for (std::size_t k = 0; k < config_.num_samples; ++k) {
      util::Rng child = rng.fork(k);
      const std::vector<std::size_t> states =
          ehmm_.sample_posterior(viterbi, fb, scratch, child, config_.sampler);
      result.samples.push_back(
          states_to_trace(ehmm_.space(), states, observations, config_.delta_s,
                          total_duration, config_.interpolation));
    }
  }
  return result;
}

VeritasResult InferenceEngine::infer(const sim::SessionLog& log) const {
  Ehmm::Scratch scratch;
  return infer(log, scratch);
}

std::vector<VeritasResult> InferenceEngine::infer_batch(
    std::span<const sim::SessionLog> logs, std::size_t num_threads) const {
  std::vector<VeritasResult> results(logs.size());
  if (logs.empty()) return results;

  std::size_t threads = num_threads == 0
                            ? util::ThreadPool::hardware_threads()
                            : num_threads;
  threads = std::min(threads, logs.size());

  if (threads <= 1) {
    Ehmm::Scratch scratch;
    for (std::size_t i = 0; i < logs.size(); ++i) {
      results[i] = infer(logs[i], scratch);
    }
    return results;
  }

  // `threads` lanes total: threads - 1 workers plus the calling thread,
  // each with a private scratch arena against the shared immutable model.
  util::ThreadPool pool(threads - 1);
  std::vector<Ehmm::Scratch> scratch(pool.size() + 1);
  pool.parallel_for(logs.size(), [&](std::size_t worker, std::size_t index) {
    results[index] = infer(logs[index], scratch[worker]);
  });
  return results;
}

}  // namespace veritas::core
