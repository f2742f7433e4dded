// Ground-truth TCP download simulator.
//
// This is the substrate standing in for the paper's mahimahi emulation
// testbed (DESIGN.md §3): a deterministic per-RTT-round model of a single
// long-lived connection downloading objects over a bottleneck whose rate
// follows a BandwidthTrace. It implements slow start, additive congestion
// avoidance, an rwnd clamp and RFC 2861 slow-start restart; loss is not
// modelled (per paper §3.2). Within a round the link is fluid: the bytes
// delivered are min(cwnd * MSS, rate(t) * RTT), with rate(t) read at the
// round's start and jittered per round (TcpConfig::rate_jitter).
//
// download() walks the trace one bandwidth window at a time. Per window
// it finds the window once and computes what depends only on its rate
// (the zero-rate skip, the BDP and the loss limit); an inner loop then
// runs the RTT rounds while t stays in that window, using the exact test
// window_index(t) makes. The window law per round is still the shared
// grow_window, so the result is the same as re-reading the trace every
// round (tests/net/tcp_download_reference_test.cpp keeps that loop as the
// reference).
//
// The estimator f (net/throughput_estimator.hpp) is a deliberately
// simplified constant-bandwidth version of this process, so inference
// error stays realistic (paper Fig. 5).
#pragma once

#include "net/tcp_state.hpp"
#include "trace/bandwidth_trace.hpp"

namespace veritas::net {

/// Outcome of one simulated object download.
struct DownloadResult {
  double start_s = 0.0;
  double end_s = 0.0;       ///< arrival time of the last byte
  double bytes = 0.0;
  int rounds = 0;           ///< RTT rounds used (>= 1)

  double duration_s() const noexcept { return end_s - start_s; }
  /// Observed throughput Y = S / D in Mbps.
  double throughput_mbps() const noexcept {
    return bytes * 8.0 / 1e6 / (end_s - start_s);
  }
};

/// A persistent TCP connection (one per video session). Congestion state
/// carries across downloads; idle gaps between downloads trigger
/// slow-start restart, exactly the effect Veritas must control for.
class TcpConnection {
 public:
  /// rtt_s is the path round-trip time (the paper emulates 80 ms
  /// end-to-end delay for sessions, 5-40 ms in the Fig. 5 sweep).
  TcpConnection(const TcpConfig& config, double rtt_s);

  /// Snapshot W at time `now_s` (>= time of the previous send). The
  /// snapshot reflects state *before* slow-start restart is applied, as a
  /// kernel's tcp_info would.
  TcpState snapshot(double now_s) const;

  /// Simulates downloading `size_bytes` starting at `start_s` over
  /// `bandwidth`. Advances the connection's congestion state and its
  /// last-send time. Requires size_bytes > 0 and start_s not before the
  /// previous download's end.
  DownloadResult download(const trace::BandwidthTrace& bandwidth,
                          double start_s, double size_bytes);

  const TcpConfig& config() const noexcept { return config_; }
  double rtt_s() const noexcept { return rtt_s_; }
  double cwnd_segments() const noexcept { return cwnd_; }
  double ssthresh_segments() const noexcept { return ssthresh_; }

 private:
  TcpConfig config_;
  double rtt_s_;
  double rto_s_;
  double cwnd_;
  double ssthresh_;
  double last_send_s_ = -1e18;  ///< fresh connection: "idle forever"
  bool first_use_ = true;
};

}  // namespace veritas::net
