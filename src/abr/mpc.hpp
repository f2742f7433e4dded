// MPC: model-predictive-control bitrate adaptation (Yin et al.,
// SIGCOMM'15), the paper's default deployed algorithm (Setting A).
//
// RobustMPC variant: predicts throughput as the harmonic mean of recent
// observations discounted by the recent maximum relative prediction
// error, then searches quality sequences over a lookahead horizon for the
// one maximizing a QoE objective (bitrate reward, rebuffering penalty,
// switching penalty) under simulated buffer dynamics. The search is an
// exact branch-and-bound, seeded with the best constant-quality sequence
// as a pruning threshold and bounded by a stall-aware suffix bound: it
// returns what an exhaustive search would, ties included.
#pragma once

#include <vector>

#include "abr/abr.hpp"

namespace veritas::abr {

struct MpcConfig {
  std::size_t horizon = 5;            ///< lookahead chunks
  std::size_t throughput_window = 5;  ///< harmonic-mean window
  double rebuffer_penalty = 8.0;      ///< QoE units per stalled second (>= 0)
  double switch_penalty = 1.0;        ///< per Mbps of bitrate change (>= 0)
  double safety_fallback_mbps = 1.0;  ///< predictor fallback with no history
  bool robust = true;                 ///< discount by max recent error
};

class Mpc final : public AbrAlgorithm {
 public:
  explicit Mpc(MpcConfig config = {});

  std::size_t choose_quality(const AbrContext& context) override;
  void reset() override;
  std::string name() const override { return config_.robust ? "mpc" : "mpc_fast"; }

 private:
  double predict_throughput(const AbrContext& context);

  MpcConfig config_;
  std::size_t last_quality_ = 0;
  bool has_last_quality_ = false;
  std::vector<double> past_prediction_errors_;
  double last_prediction_mbps_ = 0.0;
  bool has_last_prediction_ = false;

  // Per-decision search tables, kept so a decision allocates nothing.
  std::vector<double> download_s_;    ///< [depth * levels + quality]
  std::vector<double> bitrate_;       ///< [quality]
  std::vector<double> suffix_bound_;  ///< [depth], bound on steps depth..
};

}  // namespace veritas::abr
