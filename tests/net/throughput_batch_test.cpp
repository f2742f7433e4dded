// Batched candidate-vector estimator equivalence (PR 5 tentpole):
// net::estimate_throughput_batch must be *bit-identical* to k scalar
// estimate_throughput_mbps calls — for random Cubic and BBR states,
// candidate counts crossing the SIMD lane boundaries (k ∈ {1, 3, 8, 17,
// 32}), ascending state-space-like grids including the zero candidate,
// and adversarial windows that trip the closed form's guards — under
// both dispatch modes (forced scalar and forced SIMD).
#include <cmath>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "math/simd_kernels.hpp"
#include "net/throughput_estimator.hpp"

namespace sk = veritas::math::simd_kernels;

namespace {

using veritas::net::CongestionControl;
using veritas::net::TcpConfig;
using veritas::net::TcpState;
using veritas::net::estimate_throughput_batch;
using veritas::net::estimate_throughput_mbps;

bool simd_available() { return sk::simd_ops() != nullptr; }

bool mode_available(sk::Mode mode) {
  if (mode == sk::Mode::kForceSimd) return simd_available();
  return true;
}

const char* mode_name(sk::Mode mode) {
  if (mode == sk::Mode::kForceSimd) return "simd";
  return "scalar";
}

/// Random-but-realistic TCP snapshot: mixes fresh connections, post-loss
/// states, long-idle states and coarse-grid windows (the values a real
/// stack produces) with a sprinkle of off-grid adversarial ones.
TcpState random_state(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  TcpState w;
  const double r = unit(rng);
  if (r < 0.5) {
    // Coarse-grid windows (doublings / +1 steps / halvings of 10).
    w.cwnd_segments = std::ldexp(10.0, static_cast<int>(unit(rng) * 8) - 3) +
                      static_cast<int>(unit(rng) * 40);
  } else if (r < 0.9) {
    w.cwnd_segments = 1.0 + unit(rng) * 400.0;
  } else {
    w.cwnd_segments = unit(rng) * 50.0 + 1e-3;  // off-grid adversarial
  }
  w.ssthresh_segments =
      unit(rng) < 0.3 ? 1e9 : 2.0 + unit(rng) * 200.0;
  w.min_rtt_s = 0.005 + unit(rng) * 0.3;
  w.rtt_s = w.min_rtt_s * (1.0 + unit(rng));
  w.rto_s = std::max(0.2, 2.0 * w.rtt_s);
  w.last_send_gap_s = unit(rng) < 0.5 ? unit(rng) * 0.1 : unit(rng) * 10.0;
  return w;
}

TcpConfig random_config(std::mt19937_64& rng, bool bbr) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  TcpConfig config;
  config.congestion_control =
      bbr ? CongestionControl::kBbrLike : CongestionControl::kCubicLike;
  config.enable_ssr = unit(rng) < 0.8;
  config.enable_hystart = unit(rng) < 0.8;
  config.hystart_bdp_fraction = 0.1 + unit(rng) * 0.8;
  if (unit(rng) < 0.2) config.rwnd_segments = 50.0 + unit(rng) * 200.0;
  return config;
}

std::vector<double> random_candidates(std::mt19937_64& rng, std::size_t k) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> c(k, 0.0);
  if (unit(rng) < 0.5) {
    // State-space-like ascending grid starting at 0 (the EHMM's shape).
    const double eps = 0.25 + unit(rng) * 0.75;
    for (std::size_t i = 0; i < k; ++i) c[i] = static_cast<double>(i) * eps;
  } else {
    for (std::size_t i = 0; i < k; ++i) c[i] = unit(rng) * 30.0;
    if (k > 2) c[k / 2] = 0.0;  // keep a zero candidate in the mix
  }
  return c;
}

class ThroughputBatch : public ::testing::TestWithParam<std::size_t> {};

/// The core property: batch == k scalar calls, bitwise, in both dispatch
/// modes. The scalar mode exercises the reference composition path (the
/// PR 4 code), the SIMD mode the lane-parallel kernel.
TEST_P(ThroughputBatch, BitIdenticalToScalarComposition) {
  const std::size_t k = GetParam();
  std::mt19937_64 rng(4242 + k);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  for (int round = 0; round < 200; ++round) {
    const bool bbr = round % 2 == 1;
    const TcpState w = random_state(rng);
    const TcpConfig config = random_config(rng, bbr);
    const double size_bytes = 1000.0 + unit(rng) * 4e6;
    const std::vector<double> candidates = random_candidates(rng, k);

    std::vector<double> expected(k, -1.0);
    for (std::size_t i = 0; i < k; ++i) {
      expected[i] =
          estimate_throughput_mbps(candidates[i], w, size_bytes, config);
    }

    for (const sk::Mode mode :
         {sk::Mode::kForceScalar, sk::Mode::kForceSimd}) {
      if (!mode_available(mode)) continue;
      sk::ScopedMode guard(mode);
      // Oversized output with sentinels: the batch must write exactly k.
      std::vector<double> out(k + 8, -7.0);
      estimate_throughput_batch(candidates, w, size_bytes, config,
                                std::span<double>(out.data(), out.size()));
      for (std::size_t i = 0; i < k; ++i) {
        EXPECT_EQ(expected[i], out[i])
            << "k=" << k << " i=" << i << " round=" << round
            << " mode=" << mode_name(mode) << " bbr=" << bbr
            << " cand=" << candidates[i];
      }
      for (std::size_t i = k; i < out.size(); ++i) {
        EXPECT_EQ(out[i], -7.0) << "padded tail clobbered at " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CandidateCounts, ThroughputBatch,
                         ::testing::Values(std::size_t{1}, std::size_t{3},
                                           std::size_t{8}, std::size_t{17},
                                           std::size_t{32}));

/// Adversarial grid: window / bdp collisions that sit exactly on the
/// closed form's decision boundaries (fixed points, saturation at bdp,
/// one-segment data, huge transfers triggering the ratio cap fallback).
TEST(ThroughputBatch, BoundaryStates) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD table in this build";
  const double sizes[] = {1.0, 1448.0, 1449.0, 2.5e5, 8e6};
  const double cwnds[] = {1.0, 2.0, 10.0, 64.0, 100.0, 20000.0};
  const double ssthreshes[] = {2.0, 10.0, 64.0, 1e9};
  std::vector<double> candidates;
  for (int i = 0; i <= 32; ++i) candidates.push_back(0.5 * i);

  for (const bool bbr : {false, true}) {
    TcpConfig config;
    config.congestion_control =
        bbr ? CongestionControl::kBbrLike : CongestionControl::kCubicLike;
    for (const double size : sizes) {
      for (const double cwnd : cwnds) {
        for (const double ssthresh : ssthreshes) {
          TcpState w;
          w.cwnd_segments = cwnd;
          w.ssthresh_segments = ssthresh;
          w.last_send_gap_s = 1.0;
          std::vector<double> expected(candidates.size());
          for (std::size_t i = 0; i < candidates.size(); ++i) {
            expected[i] =
                estimate_throughput_mbps(candidates[i], w, size, config);
          }
          sk::ScopedMode guard(sk::Mode::kForceSimd);
          std::vector<double> out(candidates.size(), -1.0);
          estimate_throughput_batch(candidates, w, size, config, out);
          for (std::size_t i = 0; i < candidates.size(); ++i) {
            EXPECT_EQ(expected[i], out[i])
                << "size=" << size << " cwnd=" << cwnd
                << " ssthresh=" << ssthresh << " bbr=" << bbr
                << " cand=" << candidates[i];
          }
        }
      }
    }
  }
}

/// Degenerate inputs take the reference composition verbatim.
TEST(ThroughputBatch, EmptyAndZeroCandidates) {
  TcpState w;
  std::vector<double> out(4, -1.0);
  estimate_throughput_batch({}, w, 1000.0, TcpConfig{}, out);
  EXPECT_EQ(out[0], -1.0);  // untouched

  const std::vector<double> zeros(4, 0.0);
  estimate_throughput_batch(zeros, w, 1000.0, TcpConfig{}, out);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], 0.0);
}

}  // namespace
