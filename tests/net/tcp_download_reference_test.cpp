// Differential test of TcpConnection::download against the per-round loop
// it replaced, kept here as ReferenceTcpConnection: every RTT round reads
// the trace at t, draws the jitter, grows the window through grow_window
// and applies the loss limit. The simulator does the per-window work once
// per bandwidth window; the two must agree bit for bit on every download
// result and on the congestion state left behind.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "abr/abr_factory.hpp"
#include "net/network_path.hpp"
#include "net/tcp_model.hpp"
#include "sim/session.hpp"
#include "trace/trace_generator.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "video/ladder_presets.hpp"

namespace veritas::net {
namespace {

/// The simulator as one loop over RTT rounds, each re-reading the trace.
class ReferenceTcpConnection {
 public:
  ReferenceTcpConnection(const TcpConfig& config, double rtt_s)
      : config_(config),
        rtt_s_(rtt_s),
        rto_s_(std::max(config.min_rto_s, 2.0 * rtt_s)),
        cwnd_(config.init_cwnd),
        ssthresh_(config.initial_ssthresh) {}

  TcpState snapshot(double now_s) const {
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

  DownloadResult download(const trace::BandwidthTrace& bandwidth,
                          double start_s, double size_bytes) {
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
    constexpr double kMinRate = 1e-9;
    std::uint64_t noise_state = std::bit_cast<std::uint64_t>(start_s) ^
                                (std::bit_cast<std::uint64_t>(size_bytes) *
                                 0x9e3779b97f4a7c15ULL);

    while (remaining > 0.0) {
      const double rate_mbps = bandwidth.at(t);
      if (rate_mbps <= kMinRate) {
        const std::size_t idx = bandwidth.window_index(t);
        if (idx + 1 >= bandwidth.windows()) {
          result.end_s = t + 1e9;
          result.rounds = std::max(rounds, 1);
          last_send_s_ = result.end_s;
          return result;
        }
        t = static_cast<double>(idx + 1) * bandwidth.interval_s();
        continue;
      }

      double link_rate = rate_mbps;
      if (config_.rate_jitter > 0.0) {
        const double u =
            static_cast<double>(util::splitmix64(noise_state) >> 11) *
            0x1.0p-53;
        link_rate *= 1.0 + config_.rate_jitter * (2.0 * u - 1.0);
      }
      const double link_bytes = link_rate * 1e6 / 8.0 * rtt_s_;
      const double window_bytes = cwnd_ * config_.mss_bytes;
      const double round_bytes = std::min(window_bytes, link_bytes);

      ++rounds;
      if (remaining <= round_bytes && rounds > 1) {
        t += rtt_s_ * (remaining / round_bytes);
        remaining = 0.0;
      } else {
        t += rtt_s_;
        remaining -= std::min(remaining, round_bytes);
      }

      cwnd_ = grow_window(cwnd_, ssthresh_,
                          bdp_segments(rate_mbps, rtt_s_, config_), config_);
      if (config_.enable_loss &&
          config_.congestion_control == CongestionControl::kCubicLike) {
        const double bdp = bdp_segments(rate_mbps, rtt_s_, config_);
        const double limit = std::max(
            (1.0 + config_.queue_bdp_factor) * bdp, config_.init_cwnd);
        if (cwnd_ > limit) {
          ssthresh_ = std::max(cwnd_ / 2.0, config_.init_cwnd);
          cwnd_ = ssthresh_;
        }
      }
    }

    result.end_s = t;
    result.rounds = rounds;
    last_send_s_ = result.end_s;
    return result;
  }

  double rto_s() const noexcept { return rto_s_; }
  double cwnd_segments() const noexcept { return cwnd_; }
  double ssthresh_segments() const noexcept { return ssthresh_; }

 private:
  TcpConfig config_;
  double rtt_s_;
  double rto_s_;
  double cwnd_;
  double ssthresh_;
  double last_send_s_ = -1e18;
  bool first_use_ = true;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Runs one download on both connections and checks the result and the
/// state left behind. Returns the (shared) result.
DownloadResult download_both(TcpConnection& got, ReferenceTcpConnection& want,
                             const trace::BandwidthTrace& bw, double start_s,
                             double size_bytes) {
  const DownloadResult a = got.download(bw, start_s, size_bytes);
  const DownloadResult b = want.download(bw, start_s, size_bytes);
  EXPECT_TRUE(same_bits(a.start_s, b.start_s));
  EXPECT_TRUE(same_bits(a.end_s, b.end_s))
      << std::hexfloat << a.end_s << " vs " << b.end_s;
  EXPECT_TRUE(same_bits(a.bytes, b.bytes));
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_TRUE(same_bits(got.cwnd_segments(), want.cwnd_segments()))
      << got.cwnd_segments() << " vs " << want.cwnd_segments();
  EXPECT_TRUE(same_bits(got.ssthresh_segments(), want.ssthresh_segments()))
      << got.ssthresh_segments() << " vs " << want.ssthresh_segments();
  return b;
}

/// Config variant `v` of the stack: each flag the loop branches on.
TcpConfig config_variant(int v) {
  TcpConfig cfg;
  switch (v) {
    case 1: cfg.congestion_control = CongestionControl::kBbrLike; break;
    case 2: cfg.enable_loss = false; break;
    case 3: cfg.enable_hystart = false; break;
    case 4: cfg.rate_jitter = 0.0; break;
    case 5: cfg.rwnd_segments = 40.0; break;  // the clamp binds early
    case 6:
      cfg.enable_hystart = false;
      cfg.enable_loss = false;
      cfg.rwnd_segments = 300.0;
      break;
    default: break;
  }
  return cfg;
}
constexpr int kConfigVariants = 7;

/// A random trace on `interval_s`: log-uniform rates, about one window in
/// eight at exactly 0 Mbps, and (when `zero_tail`) a final zero window.
trace::BandwidthTrace random_trace(util::Rng& rng, double interval_s,
                                   std::size_t windows, bool zero_tail) {
  std::vector<double> values(windows);
  for (double& v : values) {
    v = rng.uniform() < 0.125
            ? 0.0
            : std::exp(rng.uniform(std::log(0.05), std::log(40.0)));
  }
  if (zero_tail) values.back() = 0.0;
  return trace::BandwidthTrace(interval_s, std::move(values));
}

/// Log-uniform size in [1 B, 1e8 B], capped so one download moves at most
/// about two minutes of `mean_mbps` (keeps the round count bounded).
double random_size(util::Rng& rng, double mean_mbps) {
  const double size = std::exp(rng.uniform(0.0, std::log(1e8)));
  return std::max(1.0, std::min(size, mean_mbps * 1e6 / 8.0 * 120.0));
}

TEST(TcpDownloadReference, RandomizedDownloadsMatchBitForBit) {
  util::Rng rng(26);
  std::size_t downloads = 0, multi_window = 0, idle_restarts = 0;
  for (int trial = 0; trial < 210; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const TcpConfig cfg = config_variant(trial % kConfigVariants);
    const double interval_s = std::array{0.5, 1.0, 5.0}[trial % 3];
    const double rtt_s = std::exp(rng.uniform(std::log(0.005), std::log(0.3)));
    // Short traces so later downloads run on the held last window.
    const auto windows =
        static_cast<std::size_t>(rng.uniform_int(1, 120));
    const trace::BandwidthTrace bw =
        random_trace(rng, interval_s, windows, trial % 5 == 4);
    double mean_mbps = 0.0;
    for (const double v : bw.values_mbps()) mean_mbps += v;
    mean_mbps = std::max(0.05, mean_mbps / static_cast<double>(windows));

    TcpConnection got(cfg, rtt_s);
    ReferenceTcpConnection want(cfg, rtt_s);
    double start = rng.uniform(0.0, bw.duration_s() / 4.0);
    for (int d = 0; d < 8; ++d) {
      const double size = random_size(rng, mean_mbps);
      const DownloadResult r = download_both(got, want, bw, start, size);
      if (::testing::Test::HasFailure()) return;
      ++downloads;
      if (bw.window_index(r.end_s) != bw.window_index(r.start_s)) {
        ++multi_window;
      }
      if (r.end_s > 1e8) break;  // stalled on a zero-rate tail
      // Gaps on both sides of the RTO, and back to back.
      const double rto = want.rto_s();
      switch (rng.uniform_int(0, 4)) {
        case 0: start = r.end_s; break;
        case 1: start = r.end_s + 0.5 * rto; break;
        case 2: start = r.end_s + rto; break;
        case 3:
          start = r.end_s + rto * 1.001;
          ++idle_restarts;
          break;
        default:
          start = r.end_s + rng.uniform(1.0, 20.0) * rto;
          ++idle_restarts;
          break;
      }
    }
  }
  // The cases the per-window structure must get right were exercised.
  EXPECT_GT(downloads, 1000u);
  EXPECT_GT(multi_window, 200u);
  EXPECT_GT(idle_restarts, 200u);
}

TEST(TcpDownloadReference, StartsOnAndBesideWindowBoundariesMatch) {
  util::Rng rng(2026);
  for (const double interval_s : {0.5, 1.0, 5.0}) {
    for (int v = 0; v < kConfigVariants; ++v) {
      for (const double rtt_s : {0.005, 0.08, 0.3}) {
        SCOPED_TRACE(testing::Message() << "interval " << interval_s
                                        << " config " << v << " rtt "
                                        << rtt_s);
        const TcpConfig cfg = config_variant(v);
        const trace::BandwidthTrace bw =
            random_trace(rng, interval_s, 400, false);
        TcpConnection got(cfg, rtt_s);
        ReferenceTcpConnection want(cfg, rtt_s);
        double end = 0.0;
        for (std::size_t k = 1; k < 60; ++k) {
          // k * interval exactly (the expression the zero-rate skip
          // uses), and one ulp below and above it.
          const double boundary =
              static_cast<double>(k * 3) * interval_s;
          const double starts[] = {
              std::nextafter(boundary, 0.0), boundary,
              std::nextafter(boundary, std::numeric_limits<double>::max())};
          const double start = starts[k % 3];
          if (start < end) continue;
          const double size =
              std::exp(rng.uniform(std::log(1e3), std::log(3e6)));
          end = download_both(got, want, bw, start, size).end_s;
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

TEST(TcpDownloadReference, RoundsLandingOnBoundariesMatch) {
  // RTTs that divide the window, so a round can end exactly on (or within
  // rounding of) a window boundary.
  for (const double interval_s : {0.5, 1.0, 5.0}) {
    for (const double rtt_s : {0.005, 0.01, 0.02, 0.05, 0.1, 0.25}) {
      for (const double jitter : {0.0, 0.05}) {
        TcpConfig cfg;
        cfg.rate_jitter = jitter;
        std::vector<double> values;
        for (int i = 0; i < 200; ++i) values.push_back(i % 2 == 0 ? 2.0 : 7.0);
        const trace::BandwidthTrace bw(interval_s, values);
        TcpConnection got(cfg, rtt_s);
        ReferenceTcpConnection want(cfg, rtt_s);
        double start = 0.0;
        for (int d = 0; d < 20; ++d) {
          start = download_both(got, want, bw, start, 4e5 + 1e5 * d).end_s;
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

// A round that ends one ulp below the rounded boundary k * interval can
// still have t / interval round up to k, so it is in window k. Only the
// division test window_index(t) makes gets that right; comparing t with a
// precomputed k * interval keeps the old window's rate for the next round.
TEST(TcpDownloadReference, RoundEndingJustBelowARoundedBoundaryMatches) {
  constexpr double kRtt = 0.0625;  // exact, so start + kRtt lands on t
  std::size_t cases = 0;
  for (const double interval_s : {0.1, 0.3, 0.7}) {
    std::vector<double> values;
    for (int i = 0; i < 400; ++i) values.push_back(i % 2 == 0 ? 2.0 : 7.0);
    const trace::BandwidthTrace bw(interval_s, values);
    for (std::size_t k = 1; k < values.size(); ++k) {
      const double boundary = static_cast<double>(k) * interval_s;
      const double t = std::nextafter(boundary, 0.0);
      const double start = t - kRtt;
      if (static_cast<std::size_t>(t / interval_s) != k ||
          start + kRtt != t || bw.window_index(start) != k - 1) {
        continue;
      }
      TcpConnection got(TcpConfig{}, kRtt);
      ReferenceTcpConnection want(TcpConfig{}, kRtt);
      download_both(got, want, bw, start, 2e5);
      if (::testing::Test::HasFailure()) return;
      ++cases;
    }
  }
  EXPECT_GT(cases, 20u);
}

TEST(TcpDownloadReference, ZeroRateWindowsAndTracesMatch) {
  for (int v = 0; v < kConfigVariants; ++v) {
    SCOPED_TRACE(testing::Message() << "config " << v);
    const TcpConfig cfg = config_variant(v);
    // Zero windows in the middle: the download skips to the next window.
    {
      const trace::BandwidthTrace bw(
          1.0, {3.0, 0.0, 0.0, 5.0, 0.0, 1e-9, 2.0, 0.0, 6.0});
      TcpConnection got(cfg, 0.08);
      ReferenceTcpConnection want(cfg, 0.08);
      double start = 0.5;
      for (const double size : {1e6, 2e6, 5e5, 3e6}) {
        start = download_both(got, want, bw, start, size).end_s;
      }
    }
    // An all-zero trace stalls "forever" on its held last window.
    {
      const trace::BandwidthTrace bw(0.5, {0.0, 0.0, 0.0});
      TcpConnection got(cfg, 0.08);
      ReferenceTcpConnection want(cfg, 0.08);
      const DownloadResult r = download_both(got, want, bw, 0.25, 1e5);
      EXPECT_GT(r.end_s, 1e8);
    }
    // A zero tail after some delivery: the stall keeps the rounds spent.
    {
      const trace::BandwidthTrace bw(1.0, {4.0, 4.0, 0.0});
      TcpConnection got(cfg, 0.08);
      ReferenceTcpConnection want(cfg, 0.08);
      const DownloadResult r = download_both(got, want, bw, 0.0, 5e6);
      EXPECT_GT(r.end_s, 1e8);
      EXPECT_GT(r.rounds, 1);
    }
    // The last window holds past the trace end.
    {
      const trace::BandwidthTrace bw(5.0, {1.0, 6.0});
      TcpConnection got(cfg, 0.05);
      ReferenceTcpConnection want(cfg, 0.05);
      double start = 0.0;
      for (int d = 0; d < 6; ++d) {
        start = download_both(got, want, bw, start, 2e6).end_s + 0.3;
      }
      EXPECT_GT(start, bw.duration_s());
    }
  }
}

// Whole sessions: every download of a session (start, size) replayed on
// the reference connection gives the session's own end times and TCP
// snapshots, so the session log's digest is unchanged. FCC-like traces on
// 1 s windows cross a boundary in most downloads; poor, wide-range and
// square-wave traces add stalls, idle restarts and large rate steps.
TEST(TcpDownloadReference, SessionDigestsMatch) {
  std::size_t sessions = 0;
  for (const auto family :
       {trace::TraceFamily::kFccLike, trace::TraceFamily::kPoor,
        trace::TraceFamily::kWideRange, trace::TraceFamily::kSquareWave}) {
    const auto traces = trace::make_traces(family, 2, 26);
    const video::Video video(video::default_video_config());
    for (const char* abr_name : {"mpc", "bba", "bola"}) {
      for (const double capacity_s : {5.0, 30.0}) {
        for (const auto& trace : traces) {
          SCOPED_TRACE(testing::Message()
                       << trace::family_name(family) << " " << abr_name
                       << " buffer " << capacity_s);
          const net::NetworkPath path(trace, 0.08);
          const auto abr = abr::make_abr(abr_name, 3);
          sim::SessionConfig scfg;
          scfg.buffer_capacity_s = capacity_s;
          const sim::SessionResult session =
              sim::run_session(video, *abr, path, scfg);

          sim::SessionLog replayed = session.log;
          ReferenceTcpConnection reference(path.config(), path.rtt_s());
          for (sim::ChunkLog& chunk : replayed.chunks) {
            chunk.tcp_at_start = reference.snapshot(chunk.start_s);
            chunk.end_s =
                reference.download(trace, chunk.start_s, chunk.size_bytes)
                    .end_s;
          }
          EXPECT_EQ(util::hash_session_log(session.log),
                    util::hash_session_log(replayed));
          ++sessions;
        }
      }
    }
  }
  EXPECT_EQ(sessions, 48u);
}

}  // namespace
}  // namespace veritas::net
