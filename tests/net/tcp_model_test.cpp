#include "net/tcp_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/expects.hpp"

namespace veritas::net {
namespace {

constexpr double kRtt = 0.08;

trace::BandwidthTrace constant_bw(double mbps) {
  return trace::BandwidthTrace::constant(mbps, 10000.0, 5.0);
}

TEST(TcpHelpers, BdpSegments) {
  TcpConfig cfg;
  // 4 Mbps * 80 ms = 40 KB = ~27.6 segments of 1448 B.
  EXPECT_NEAR(bdp_segments(4.0, 0.08, cfg), 4e6 / 8 * 0.08 / 1448.0, 1e-9);
}

TEST(TcpHelpers, SegmentsForBytesCeil) {
  TcpConfig cfg;
  EXPECT_DOUBLE_EQ(segments_for_bytes(1.0, cfg), 1.0);
  EXPECT_DOUBLE_EQ(segments_for_bytes(1448.0, cfg), 1.0);
  EXPECT_DOUBLE_EQ(segments_for_bytes(1449.0, cfg), 2.0);
}

TEST(TcpHelpers, GrowWindowSlowStartDoubles) {
  TcpConfig cfg;
  cfg.enable_hystart = false;
  EXPECT_DOUBLE_EQ(grow_window(10.0, 100.0, 1000.0, cfg), 20.0);
}

TEST(TcpHelpers, GrowWindowCongestionAvoidanceAddsOne) {
  TcpConfig cfg;
  EXPECT_DOUBLE_EQ(grow_window(50.0, 30.0, 1000.0, cfg), 51.0);
}

TEST(TcpHelpers, GrowWindowHystartExitsEarly) {
  TcpConfig cfg;  // hystart at 0.25 * bdp
  // cwnd 10, ssthresh huge, bdp 20 -> 10 >= 5 -> linear growth.
  EXPECT_DOUBLE_EQ(grow_window(10.0, 1e9, 20.0, cfg), 11.0);
  // tiny window still doubles.
  EXPECT_DOUBLE_EQ(grow_window(2.0, 1e9, 100.0, cfg), 4.0);
}

TEST(TcpHelpers, GrowWindowClampedByRwnd) {
  TcpConfig cfg;
  cfg.rwnd_segments = 64.0;
  cfg.enable_hystart = false;
  EXPECT_DOUBLE_EQ(grow_window(60.0, 1e9, 1e9, cfg), 64.0);
}

TEST(SlowStartRestart, NoDecayWithinRto) {
  TcpConfig cfg;
  TcpState w;
  w.cwnd_segments = 40.0;
  w.rto_s = 0.2;
  w.last_send_gap_s = 0.1;
  apply_slow_start_restart(w, cfg);
  EXPECT_DOUBLE_EQ(w.cwnd_segments, 40.0);
}

TEST(SlowStartRestart, HalvesPerRto) {
  TcpConfig cfg;
  TcpState w;
  w.cwnd_segments = 40.0;
  w.ssthresh_segments = 100.0;
  w.rto_s = 0.2;
  w.last_send_gap_s = 0.45;  // two elapsed RTOs
  apply_slow_start_restart(w, cfg);
  EXPECT_DOUBLE_EQ(w.cwnd_segments, 10.0);
}

TEST(SlowStartRestart, FloorsAtInitCwnd) {
  TcpConfig cfg;
  TcpState w;
  w.cwnd_segments = 80.0;
  w.rto_s = 0.2;
  w.last_send_gap_s = 100.0;
  apply_slow_start_restart(w, cfg);
  EXPECT_DOUBLE_EQ(w.cwnd_segments, cfg.init_cwnd);
}

TEST(SlowStartRestart, RaisesSsthreshFromPreDecayWindow) {
  TcpConfig cfg;
  TcpState w;
  w.cwnd_segments = 40.0;
  w.ssthresh_segments = 10.0;
  w.rto_s = 0.2;
  w.last_send_gap_s = 10.0;
  apply_slow_start_restart(w, cfg);
  EXPECT_DOUBLE_EQ(w.ssthresh_segments, 30.0);  // 3/4 * 40
}

TEST(SlowStartRestart, DisabledIsNoOp) {
  TcpConfig cfg;
  cfg.enable_ssr = false;
  TcpState w;
  w.cwnd_segments = 40.0;
  w.last_send_gap_s = 100.0;
  apply_slow_start_restart(w, cfg);
  EXPECT_DOUBLE_EQ(w.cwnd_segments, 40.0);
}

TEST(TcpConnection, DownloadTakesAtLeastOneRtt) {
  TcpConnection conn(TcpConfig{}, kRtt);
  const auto result = conn.download(constant_bw(100.0), 0.0, 100.0);
  EXPECT_GE(result.duration_s(), kRtt - 1e-12);
  EXPECT_EQ(result.rounds, 1);
}

TEST(TcpConnection, ThroughputNeverExceedsLinkByMuch) {
  TcpConfig cfg;
  TcpConnection conn(cfg, kRtt);
  const auto bw = constant_bw(5.0);
  double t = 0.0;
  for (int i = 0; i < 30; ++i) {
    const auto r = conn.download(bw, t, 400000.0);
    // Per-round rate jitter allows a small excursion above nominal.
    EXPECT_LE(r.throughput_mbps(), 5.0 * (1.0 + cfg.rate_jitter) + 1e-9);
    t = r.end_s + 0.1;
  }
}

TEST(TcpConnection, JitterDisabledIsExactlyLinkBound) {
  TcpConfig cfg;
  cfg.rate_jitter = 0.0;
  TcpConnection conn(cfg, kRtt);
  const auto bw = constant_bw(5.0);
  double t = 0.0;
  for (int i = 0; i < 10; ++i) {
    const auto r = conn.download(bw, t, 400000.0);
    EXPECT_LE(r.throughput_mbps(), 5.0 + 1e-9);
    t = r.end_s + 0.1;
  }
}

TEST(TcpConnection, JitterIsDeterministic) {
  TcpConfig cfg;
  TcpConnection a(cfg, kRtt), b(cfg, kRtt);
  const auto bw = constant_bw(5.0);
  const auto ra = a.download(bw, 0.0, 400000.0);
  const auto rb = b.download(bw, 0.0, 400000.0);
  EXPECT_DOUBLE_EQ(ra.end_s, rb.end_s);
}

TEST(TcpConnection, LargeTransferApproachesLinkRate) {
  TcpConnection conn(TcpConfig{}, kRtt);
  const auto r = conn.download(constant_bw(6.0), 0.0, 30e6);
  EXPECT_GT(r.throughput_mbps(), 0.9 * 6.0);
}

TEST(TcpConnection, SmallTransferRttBound) {
  TcpConnection conn(TcpConfig{}, kRtt);
  const auto r = conn.download(constant_bw(18.0), 0.0, 2048.0);
  // 2 KB in one RTT: ~0.2 Mbps regardless of an 18 Mbps link.
  EXPECT_NEAR(r.throughput_mbps(), 2048.0 * 8 / 1e6 / kRtt, 1e-6);
}

TEST(TcpConnection, DownloadTimeMonotoneInSize) {
  // Same start state: bigger object cannot finish sooner.
  double prev = 0.0;
  for (const double size : {1e4, 1e5, 1e6, 1e7}) {
    TcpConnection conn(TcpConfig{}, kRtt);
    const auto r = conn.download(constant_bw(4.0), 0.0, size);
    EXPECT_GE(r.duration_s(), prev);
    prev = r.duration_s();
  }
}

TEST(TcpConnection, IdleGapReducesNextThroughput) {
  // Warm connection, short gap -> fast; long gap -> SSR -> slower.
  auto run_with_gap = [&](double gap) {
    TcpConnection conn(TcpConfig{}, kRtt);
    const auto bw = constant_bw(8.0);
    double t = 0.0;
    for (int i = 0; i < 10; ++i) {  // warm up cwnd
      const auto r = conn.download(bw, t, 500000.0);
      t = r.end_s + 0.05;
    }
    const auto r = conn.download(bw, t + gap, 250000.0);
    return r.throughput_mbps();
  };
  EXPECT_GT(run_with_gap(0.0), run_with_gap(3.0));
}

TEST(TcpConnection, SnapshotReportsGap) {
  TcpConnection conn(TcpConfig{}, kRtt);
  const auto bw = constant_bw(5.0);
  const auto r = conn.download(bw, 0.0, 100000.0);
  const TcpState w = conn.snapshot(r.end_s + 1.5);
  EXPECT_NEAR(w.last_send_gap_s, 1.5, 1e-9);
}

TEST(TcpConnection, FirstSnapshotHasZeroGap) {
  TcpConnection conn(TcpConfig{}, kRtt);
  EXPECT_DOUBLE_EQ(conn.snapshot(100.0).last_send_gap_s, 0.0);
}

TEST(TcpConnection, StateCarriesAcrossDownloads) {
  TcpConnection conn(TcpConfig{}, kRtt);
  const auto bw = constant_bw(8.0);
  const double cwnd_before = conn.cwnd_segments();
  const auto r = conn.download(bw, 0.0, 2e6);
  EXPECT_GT(conn.cwnd_segments(), cwnd_before);
  // Back-to-back download starts from the grown window: faster.
  TcpConnection fresh(TcpConfig{}, kRtt);
  const auto r_fresh = fresh.download(bw, 0.0, 250000.0);
  const auto r_warm = conn.download(bw, r.end_s, 250000.0);
  EXPECT_LT(r_warm.duration_s(), r_fresh.duration_s());
}

TEST(TcpConnection, LossCapsWindow) {
  TcpConfig cfg;
  TcpConnection conn(cfg, kRtt);
  const auto bw = constant_bw(4.0);
  conn.download(bw, 0.0, 20e6);
  const double bdp = bdp_segments(4.0, kRtt, cfg);
  EXPECT_LE(conn.cwnd_segments(), (1.0 + cfg.queue_bdp_factor) * bdp + 1.0);
  EXPECT_LT(conn.ssthresh_segments(), 1e8);  // finite after loss
}

TEST(TcpConnection, NoLossKeepsSsthreshInfinite) {
  TcpConfig cfg;
  cfg.enable_loss = false;
  TcpConnection conn(cfg, kRtt);
  conn.download(constant_bw(4.0), 0.0, 20e6);
  EXPECT_DOUBLE_EQ(conn.ssthresh_segments(), cfg.initial_ssthresh);
}

TEST(TcpConnection, ZeroRateWindowIsSkipped) {
  // Rate 0 in the first window, 5 Mbps afterwards: the download stalls
  // until the window boundary and then proceeds.
  const trace::BandwidthTrace bw(1.0, {0.0, 5.0});
  TcpConnection conn(TcpConfig{}, kRtt);
  const auto r = conn.download(bw, 0.5, 100000.0);
  EXPECT_GE(r.end_s, 1.0);  // could not finish inside the dead window
  EXPECT_LT(r.end_s, 3.0);
}

TEST(TcpConnection, ZeroRateWindowEndingAtARoundedBoundaryIsSkipped) {
  // 0.7 s windows: the dead window 2 ends where 3 * 0.7 / 0.7 rounds
  // to 2.9999999999999996, i.e. still inside window 2 by that test.
  const trace::BandwidthTrace bw(0.7, {5.0, 5.0, 0.0, 5.0});
  TcpConnection conn(TcpConfig{}, kRtt);
  const auto r = conn.download(bw, 1.5, 100000.0);
  EXPECT_GE(r.end_s, 2.1);  // could not finish inside the dead window
  EXPECT_LT(r.end_s, 4.0);
}

TEST(TcpConnection, AllZeroTraceStallsEffectivelyForever) {
  const trace::BandwidthTrace bw(1.0, {0.0});
  TcpConnection conn(TcpConfig{}, kRtt);
  const auto r = conn.download(bw, 0.0, 1000.0);
  EXPECT_GT(r.end_s, 1e6);
}

TEST(TcpConnection, RejectsBadArguments) {
  TcpConnection conn(TcpConfig{}, kRtt);
  const auto bw = constant_bw(5.0);
  EXPECT_THROW(conn.download(bw, 0.0, 0.0), veritas::ContractViolation);
  const auto r = conn.download(bw, 1.0, 1000.0);
  // Cannot start a download before the previous one ended.
  EXPECT_THROW(conn.download(bw, r.end_s - 0.01, 1000.0),
               veritas::ContractViolation);
}

TEST(TcpConnection, VaryingBandwidthIsTracked) {
  // 1 Mbps then 8 Mbps: a download spanning both windows is faster than
  // all-1Mbps and slower than all-8Mbps.
  const trace::BandwidthTrace varying(5.0, {1.0, 8.0, 8.0, 8.0});
  TcpConnection c1(TcpConfig{}, kRtt);
  const auto r_var = c1.download(varying, 0.0, 4e6);
  TcpConnection c2(TcpConfig{}, kRtt);
  const auto r_slow = c2.download(constant_bw(1.0), 0.0, 4e6);
  TcpConnection c3(TcpConfig{}, kRtt);
  const auto r_fast = c3.download(constant_bw(8.0), 0.0, 4e6);
  EXPECT_LT(r_var.duration_s(), r_slow.duration_s());
  EXPECT_GT(r_var.duration_s(), r_fast.duration_s());
}

}  // namespace
}  // namespace veritas::net
