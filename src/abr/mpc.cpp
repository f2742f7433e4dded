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
  // The search's pruning bound assumes no step can gain more than its
  // bitrate, which holds only for non-negative penalties.
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
  const std::size_t remaining = video.num_chunks() - context.next_chunk;
  const std::size_t horizon = std::min(config_.horizon, remaining);

  // Hoist every Video lookup out of the search: per-(depth, quality)
  // download times under the predicted throughput, the ladder bitrates,
  // and suffix_bound_[d] = (horizon - d) * top bitrate, an upper bound on
  // the QoE any (horizon - d) further steps can add.
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
  for (std::size_t depth = 0; depth <= horizon; ++depth) {
    suffix_bound_[depth] =
        static_cast<double>(horizon - depth) * bitrate_[levels - 1];
  }

  double best_qoe = -std::numeric_limits<double>::infinity();
  std::size_t best_first = 0;

  // Exact branch-and-bound over quality sequences (levels^horizon <= 5^5
  // leaves): simulate buffer dynamics under the predicted throughput and
  // score QoE = bitrate - rebuffer_penalty * stall - switch_penalty *
  // |Δbitrate|. Each step adds at most its bitrate (both penalties are
  // >= 0), so qoe + suffix_bound_[depth] bounds every leaf below a node.
  // A node is skipped only when that bound falls short of best_qoe by a
  // relative margin far wider than any rounding in the leaf sums, so a
  // skipped leaf could never have passed the strict `>` below. With
  // quality 0 visited first and each leaf scored by the same sequence of
  // operations as in an exhaustive search, the choice (ties included) is
  // the one that search makes.
  auto rollout = [&](auto&& self, std::size_t depth, Rollout state,
                     std::size_t first) -> void {
    const double* download_row = download_s_.data() + depth * levels;
    const bool leaf = depth + 1 == horizon;
    for (std::size_t quality = 0; quality < levels; ++quality) {
      const double bitrate = bitrate_[quality];
      const double download_s = download_row[quality];
      const double stall = std::max(0.0, download_s - state.buffer_s);
      double buffer = std::max(0.0, state.buffer_s - download_s) + chunk_s;
      buffer = std::min(buffer, context.buffer_capacity_s);
      double qoe = state.qoe + bitrate - config_.rebuffer_penalty * stall;
      if (state.prev_bitrate >= 0.0) {
        qoe -= config_.switch_penalty * std::abs(bitrate - state.prev_bitrate);
      }
      const std::size_t next_first = depth == 0 ? quality : first;
      if (leaf) {
        if (qoe > best_qoe) {
          best_qoe = qoe;
          best_first = next_first;
        }
        continue;
      }
      const double bound = qoe + suffix_bound_[depth + 1];
      if (bound + 1e-9 * (std::abs(bound) + 1.0) < best_qoe) continue;
      self(self, depth + 1, Rollout{buffer, qoe, bitrate}, next_first);
    }
  };

  Rollout initial;
  initial.buffer_s = context.buffer_s;
  initial.prev_bitrate =
      has_last_quality_ ? video.bitrate_mbps(last_quality_) : -1.0;
  rollout(rollout, 0, initial, 0);

  last_quality_ = best_first;
  has_last_quality_ = true;
  return best_first;
}

}  // namespace veritas::abr
