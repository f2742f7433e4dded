#include "abr/mpc.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/expects.hpp"

namespace veritas::abr {

namespace {

/// Buffer/QoE rollout state for the horizon search.
struct Rollout {
  double buffer_s = 0.0;
  double qoe = 0.0;
  double prev_bitrate = -1.0;  ///< < 0 means "no previous chunk"
};

}  // namespace

Mpc::Mpc(MpcConfig config) : config_(config) {
  VERITAS_EXPECTS(config_.horizon >= 1);
  VERITAS_EXPECTS(config_.throughput_window >= 1);
  VERITAS_EXPECTS(config_.safety_fallback_mbps > 0.0);
  // The search's pruning bound drops the switching penalty and charges
  // the least possible stall, which bounds a step's gain only for
  // non-negative penalties.
  VERITAS_EXPECTS(config_.rebuffer_penalty >= 0.0);
  VERITAS_EXPECTS(config_.switch_penalty >= 0.0);
}

void Mpc::reset() {
  last_quality_ = 0;
  has_last_quality_ = false;
  past_prediction_errors_.clear();
  last_prediction_mbps_ = 0.0;
  has_last_prediction_ = false;
}

double Mpc::predict_throughput(const AbrContext& context) {
  // Track the realized error of the previous prediction (RobustMPC
  // discounts the harmonic mean by the recent maximum relative error).
  if (has_last_prediction_ && !context.history.empty()) {
    const double actual = context.history.back().throughput_mbps();
    if (actual > 0.0) {
      past_prediction_errors_.push_back(
          std::abs(last_prediction_mbps_ - actual) / actual);
      if (past_prediction_errors_.size() > config_.throughput_window) {
        past_prediction_errors_.erase(past_prediction_errors_.begin());
      }
    }
  }
  const double hm = harmonic_mean_throughput(
      context.history, config_.throughput_window, config_.safety_fallback_mbps);
  last_prediction_mbps_ = hm;
  has_last_prediction_ = true;
  if (!config_.robust || past_prediction_errors_.empty()) return hm;
  const double max_err = *std::max_element(past_prediction_errors_.begin(),
                                           past_prediction_errors_.end());
  return hm / (1.0 + max_err);
}

std::size_t Mpc::choose_quality(const AbrContext& context) {
  VERITAS_EXPECTS(context.video != nullptr);
  VERITAS_EXPECTS(context.next_chunk < context.video->num_chunks());
  const video::Video& video = *context.video;
  const std::size_t levels = video.num_qualities();
  const double predicted_mbps =
      std::max(predict_throughput(context), 1e-6);
  const double chunk_s = video.chunk_duration_s();
  const double capacity_s = context.buffer_capacity_s;
  const std::size_t remaining = video.num_chunks() - context.next_chunk;
  const std::size_t horizon = std::min(config_.horizon, remaining);

  // Hoist every Video lookup out of the search: per-(depth, quality)
  // download times under the predicted throughput and the ladder
  // bitrates.
  download_s_.resize(horizon * levels);
  bitrate_.resize(levels);
  suffix_bound_.resize(horizon + 1);
  for (std::size_t quality = 0; quality < levels; ++quality) {
    bitrate_[quality] = video.bitrate_mbps(quality);
  }
  for (std::size_t depth = 0; depth < horizon; ++depth) {
    const std::size_t chunk = context.next_chunk + depth;
    for (std::size_t quality = 0; quality < levels; ++quality) {
      const double size_bytes = video.chunk_size_bytes(chunk, quality);
      download_s_[depth * levels + quality] =
          size_bytes * 8.0 / 1e6 / predicted_mbps;
    }
  }

  // One step of the rollout: download `quality` at `depth` from `state`.
  // The DFS and the constant-quality seed below both score leaves with
  // it, so a leaf's QoE is the same bits whichever of them computes it.
  const auto step = [&](const Rollout& state, std::size_t depth,
                        std::size_t quality) {
    const double bitrate = bitrate_[quality];
    const double download_s = download_s_[depth * levels + quality];
    const double stall = std::max(0.0, download_s - state.buffer_s);
    double buffer = std::max(0.0, state.buffer_s - download_s) + chunk_s;
    buffer = std::min(buffer, capacity_s);
    double qoe = state.qoe + bitrate - config_.rebuffer_penalty * stall;
    if (state.prev_bitrate >= 0.0) {
      qoe -= config_.switch_penalty * std::abs(bitrate - state.prev_bitrate);
    }
    return Rollout{buffer, qoe, bitrate};
  };

  // Stall-aware suffix bound. A step never raises the buffer by more
  // than chunk_s, nor past capacity, so the buffer at depth d is at most
  // B_d, with B_0 = buffer_s and B_{d+1} = min(capacity, max(0, B_d) +
  // chunk_s). Floating-point rounding is monotone, so that recursion
  // bounds the rollout's own rounded buffer too. A step at depth d then
  // gains at most max_q(bitrate_q - rebuffer_penalty * max(0,
  // download_s - B_d)) (both penalties are >= 0), and suffix_bound_[d]
  // sums that over the depths d..horizon-1: it bounds the QoE any
  // completion adds.
  double max_buffer = context.buffer_s;
  for (std::size_t depth = 0; depth < horizon; ++depth) {
    const double* download_row = download_s_.data() + depth * levels;
    double gain = -std::numeric_limits<double>::infinity();
    for (std::size_t quality = 0; quality < levels; ++quality) {
      const double stall = std::max(0.0, download_row[quality] - max_buffer);
      gain = std::max(gain,
                      bitrate_[quality] - config_.rebuffer_penalty * stall);
    }
    suffix_bound_[depth] = gain;  // summed into a suffix below
    max_buffer = std::min(capacity_s, std::max(0.0, max_buffer) + chunk_s);
  }
  suffix_bound_[horizon] = 0.0;
  for (std::size_t depth = horizon; depth-- > 0;) {
    suffix_bound_[depth] += suffix_bound_[depth + 1];
  }

  Rollout initial;
  initial.buffer_s = context.buffer_s;
  initial.prev_bitrate =
      has_last_quality_ ? video.bitrate_mbps(last_quality_) : -1.0;

  // Seeded pruning threshold: the best of the `levels` constant-quality
  // leaves. Each is a leaf of the DFS scored by the same steps, so the
  // optimum is >= threshold and every leaf that ties the optimum has a
  // bound >= threshold.
  double threshold = -std::numeric_limits<double>::infinity();
  for (std::size_t quality = 0; quality < levels; ++quality) {
    Rollout state = initial;
    for (std::size_t depth = 0; depth < horizon; ++depth) {
      state = step(state, depth, quality);
    }
    threshold = std::max(threshold, state.qoe);
  }

  double best_qoe = -std::numeric_limits<double>::infinity();
  std::size_t best_first = 0;

  // Exact branch-and-bound over quality sequences (levels^horizon <= 5^5
  // leaves): simulate buffer dynamics under the predicted throughput and
  // score QoE = bitrate - rebuffer_penalty * stall - switch_penalty *
  // |Δbitrate|. qoe + suffix_bound_[depth] bounds every leaf below a
  // node. A node is skipped only when that bound falls short of
  // max(best_qoe, threshold) by a relative margin far wider than any
  // rounding in the leaf sums, so a skipped leaf is strictly below the
  // optimum and could never have passed the strict `>` below. The
  // incumbent starts empty, the DFS visits quality 0 first and each leaf
  // is scored by the same sequence of operations as in an exhaustive
  // search, so the choice (ties included) is the one that search makes.
  auto rollout = [&](auto&& self, std::size_t depth, const Rollout& state,
                     std::size_t first) -> void {
    const bool leaf = depth + 1 == horizon;
    for (std::size_t quality = 0; quality < levels; ++quality) {
      const Rollout next = step(state, depth, quality);
      const std::size_t next_first = depth == 0 ? quality : first;
      if (leaf) {
        if (next.qoe > best_qoe) {
          best_qoe = next.qoe;
          best_first = next_first;
        }
        continue;
      }
      const double bound = next.qoe + suffix_bound_[depth + 1];
      if (bound + 1e-9 * (std::abs(bound) + 1.0) <
          std::max(best_qoe, threshold)) {
        continue;
      }
      self(self, depth + 1, next, next_first);
    }
  };
  rollout(rollout, 0, initial, 0);

  last_quality_ = best_first;
  has_last_quality_ = true;
  return best_first;
}

}  // namespace veritas::abr
