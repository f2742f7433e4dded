#include "net/tcp_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>

#include "util/expects.hpp"
#include "util/rng.hpp"

namespace veritas::net {

void apply_slow_start_restart(TcpState& w, const TcpConfig& config) {
  if (!config.enable_ssr) return;
  if (config.congestion_control == CongestionControl::kBbrLike) {
    // BBR keeps its bottleneck-rate estimate across idle periods; after
    // a long idle it re-probes from roughly the old operating point
    // rather than collapsing to the initial window.
    return;
  }
  if (w.last_send_gap_s <= w.rto_s) return;
  // Raise ssthresh from the pre-decay window (Linux
  // tcp_cwnd_application_limited: ssthresh = max(ssthresh, 3/4 cwnd)).
  w.ssthresh_segments = std::max(
      w.ssthresh_segments, 0.75 * w.cwnd_segments);
  // Halve cwnd once per elapsed RTO, floored at the restart window.
  double gap = w.last_send_gap_s;
  while (gap > w.rto_s && w.cwnd_segments > config.init_cwnd) {
    gap -= w.rto_s;
    w.cwnd_segments = std::max(config.init_cwnd, w.cwnd_segments / 2.0);
  }
}

double bdp_segments(double mbps, double rtt_s, const TcpConfig& config) {
  VERITAS_EXPECTS(mbps >= 0.0 && rtt_s > 0.0);
  return mbps * 1e6 / 8.0 * rtt_s / config.mss_bytes;
}

double segments_for_bytes(double size_bytes, const TcpConfig& config) {
  VERITAS_EXPECTS(size_bytes >= 0.0);
  return std::ceil(size_bytes / config.mss_bytes);
}

bool in_slow_start(double cwnd_segments, double ssthresh_segments,
                   double bdp_segments, const TcpConfig& config) {
  const bool delay_exit =
      config.enable_hystart &&
      cwnd_segments >= config.hystart_bdp_fraction * bdp_segments;
  return cwnd_segments < ssthresh_segments && !delay_exit;
}

double grow_window(double cwnd_segments, double ssthresh_segments,
                   double bdp_segments, const TcpConfig& config) {
  if (config.congestion_control == CongestionControl::kBbrLike) {
    // Startup doubles until the pipe (plus headroom) is full; from then
    // on the window tracks 2x the measured BDP in both directions —
    // rate-based operation.
    const double target = 2.0 * bdp_segments;
    const double grown = cwnd_segments < target
                             ? std::min(2.0 * cwnd_segments, target)
                             : target;
    return std::min(std::max(grown, config.init_cwnd),
                    config.rwnd_segments);
  }
  const double grown =
      in_slow_start(cwnd_segments, ssthresh_segments, bdp_segments, config)
          ? 2.0 * cwnd_segments
          : cwnd_segments + 1.0;
  return std::min(grown, config.rwnd_segments);
}

TcpConnection::TcpConnection(const TcpConfig& config, double rtt_s)
    : config_(config),
      rtt_s_(rtt_s),
      rto_s_(std::max(config.min_rto_s, 2.0 * rtt_s)),
      cwnd_(config.init_cwnd),
      ssthresh_(config.initial_ssthresh) {
  VERITAS_EXPECTS(rtt_s > 0.0);
}

TcpState TcpConnection::snapshot(double now_s) const {
  TcpState w;
  w.cwnd_segments = cwnd_;
  w.ssthresh_segments = ssthresh_;
  w.rto_s = rto_s_;
  w.min_rtt_s = rtt_s_;
  w.rtt_s = rtt_s_;
  w.last_send_gap_s =
      first_use_ ? 0.0 : std::max(0.0, now_s - last_send_s_);
  return w;
}

DownloadResult TcpConnection::download(const trace::BandwidthTrace& bandwidth,
                                       double start_s, double size_bytes) {
  VERITAS_EXPECTS(size_bytes > 0.0);
  VERITAS_EXPECTS(start_s >= 0.0);
  VERITAS_EXPECTS(first_use_ || start_s >= last_send_s_);

  if (!first_use_) {
    TcpState w = snapshot(start_s);
    apply_slow_start_restart(w, config_);
    cwnd_ = w.cwnd_segments;
    ssthresh_ = w.ssthresh_segments;
  }
  first_use_ = false;

  DownloadResult result;
  result.start_s = start_s;
  result.bytes = size_bytes;

  double remaining = size_bytes;
  double t = start_s;
  int rounds = 0;
  // Guard against zero-rate tails: a stall longer than this aborts the
  // round loop with the time the trace itself would need.
  constexpr double kMinRate = 1e-9;

  // Deterministic per-download noise stream (see TcpConfig::rate_jitter):
  // hashed from the download identity so repeated runs are identical.
  std::uint64_t noise_state = std::bit_cast<std::uint64_t>(start_s) ^
                              (std::bit_cast<std::uint64_t>(size_bytes) *
                               0x9e3779b97f4a7c15ULL);

  const double rtt = rtt_s_;
  const double interval = bandwidth.interval_s();
  const std::span<const double> rates = bandwidth.values_mbps();
  const bool lossy = config_.enable_loss &&
                     config_.congestion_control == CongestionControl::kCubicLike;

  // One pass of the outer loop per bandwidth window: everything that
  // depends only on the window's rate is computed once, then the rounds
  // run while t stays in that window.
  while (remaining > 0.0) {
    const std::size_t idx = bandwidth.window_index(t);
    const double rate_mbps = rates[idx];
    const bool last_window = idx + 1 >= rates.size();
    if (rate_mbps <= kMinRate) {
      // Nothing can be delivered in this window; skip to the next window
      // boundary (or stall forever if the trace ends at rate 0).
      if (last_window) {
        // Trace holds 0 Mbps forever: model as an extremely long stall.
        result.end_s = t + 1e9;
        result.rounds = std::max(rounds, 1);
        last_send_s_ = result.end_s;
        return result;
      }
      t = bandwidth.window_end_s(idx);
      continue;
    }

    const double bdp = bdp_segments(rate_mbps, rtt, config_);
    // Bottleneck overshoot: the queue absorbs queue_bdp_factor * BDP;
    // beyond that the tail drops and the sender halves into congestion
    // avoidance (fast recovery). Keeps ssthresh ~ BDP, so every
    // post-idle restart pays a slow linear climb — the size-dependent
    // throughput bias of paper Fig. 2(c).
    const double limit =
        std::max((1.0 + config_.queue_bdp_factor) * bdp, config_.init_cwnd);
    double cwnd = cwnd_;
    double ssthresh = ssthresh_;
    do {
      double link_rate = rate_mbps;
      if (config_.rate_jitter > 0.0) {
        const double u =
            static_cast<double>(util::splitmix64(noise_state) >> 11) *
            0x1.0p-53;
        link_rate *= 1.0 + config_.rate_jitter * (2.0 * u - 1.0);
      }
      const double link_bytes = link_rate * 1e6 / 8.0 * rtt;
      const double window_bytes = cwnd * config_.mss_bytes;
      const double round_bytes = std::min(window_bytes, link_bytes);

      ++rounds;
      if (remaining <= round_bytes && rounds > 1) {
        // Fractional final round (first round always costs one full RTT:
        // request plus first delivery cannot beat one round trip).
        t += rtt * (remaining / round_bytes);
        remaining = 0.0;
      } else {
        t += rtt;
        remaining -= std::min(remaining, round_bytes);
      }

      // Window evolution per round (shared law with the estimator f).
      cwnd = grow_window(cwnd, ssthresh, bdp, config_);
      if (lossy && cwnd > limit) {
        ssthresh = std::max(cwnd / 2.0, config_.init_cwnd);
        cwnd = ssthresh;
      }
      // The same test window_index(t) makes: the last window holds past
      // the trace end, any other ends where t / interval reaches idx + 1.
    } while (remaining > 0.0 &&
             (last_window || static_cast<std::size_t>(t / interval) == idx));
    cwnd_ = cwnd;
    ssthresh_ = ssthresh;
  }

  result.end_s = t;
  result.rounds = rounds;
  last_send_s_ = result.end_s;
  VERITAS_ENSURES(result.end_s > result.start_s);
  return result;
}

}  // namespace veritas::net
