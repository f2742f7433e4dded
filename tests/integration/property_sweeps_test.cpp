// Cross-cutting property sweeps (TEST_P) over the configuration grid:
// the invariants every (trace family x ABR x buffer x CC) combination
// must satisfy, end to end.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>

#include "abr/abr_factory.hpp"
#include "core/veritas.hpp"
#include "net/network_path.hpp"
#include "sim/metrics.hpp"
#include "sim/session.hpp"
#include "trace/trace_generator.hpp"
#include "video/ladder_presets.hpp"

namespace veritas {
namespace {

struct SweepCase {
  trace::TraceFamily family;
  const char* abr;
  double buffer_s;
  net::CongestionControl cc;
};

std::string sweep_name(const SweepCase& c) {
  std::string name = trace::family_name(c.family);
  name += "_";
  name += c.abr;
  name += "_b";
  name += std::to_string(int(c.buffer_s));
  name += c.cc == net::CongestionControl::kBbrLike ? "_bbr" : "_cubic";
  // gtest names must be alphanumeric.
  for (char& ch : name) {
    if (ch == ':') ch = '_';
  }
  return name;
}

std::string case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  return sweep_name(info.param);
}

// Prints each case by its name. Without this gtest prints the raw bytes,
// padding included, so the ctest names derived from them changed from
// one process to the next.
void PrintTo(const SweepCase& c, std::ostream* os) { *os << sweep_name(c); }

class SessionSweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  sim::SessionResult run(std::size_t chunks = 80) {
    const SweepCase& param = GetParam();
    video::VideoConfig vcfg = video::default_video_config();
    vcfg.duration_s = double(chunks) * vcfg.chunk_duration_s;
    const video::Video video(vcfg);
    const auto traces = trace::make_traces(param.family, 1, 1234);
    net::TcpConfig tcp;
    tcp.congestion_control = param.cc;
    const net::NetworkPath path(traces[0], 0.08, tcp);
    auto abr = abr::make_abr(param.abr, 5);
    sim::SessionConfig cfg;
    cfg.buffer_capacity_s = param.buffer_s;
    video_ = video;
    return sim::run_session(video, *abr, path, cfg);
  }

  std::optional<video::Video> video_;
};

TEST_P(SessionSweep, LogInvariantsHold) {
  const sim::SessionResult result = run();
  double prev_end = 0.0;
  for (const sim::ChunkLog& c : result.log.chunks) {
    EXPECT_GT(c.end_s, c.start_s);
    EXPECT_GE(c.start_s, prev_end - 1e-9);
    EXPECT_GT(c.size_bytes, 0.0);
    EXPECT_TRUE(std::isfinite(c.throughput_mbps()));
    EXPECT_GT(c.throughput_mbps(), 0.0);
    EXPECT_GE(c.tcp_at_start.cwnd_segments, 1.0);
    EXPECT_GE(c.tcp_at_start.last_send_gap_s, 0.0);
    prev_end = c.end_s;
  }
}

TEST_P(SessionSweep, MetricsInValidRanges) {
  const sim::SessionResult result = run();
  const sim::QoeMetrics m = sim::compute_metrics(*video_, result);
  EXPECT_GT(m.mean_ssim, 0.85);
  EXPECT_LT(m.mean_ssim, 1.0);
  EXPECT_GE(m.rebuffer_ratio_pct, 0.0);
  EXPECT_LT(m.rebuffer_ratio_pct, 100.0);
  EXPECT_GE(m.avg_bitrate_mbps, video_->bitrate_mbps(0) - 1e-9);
  EXPECT_LE(m.avg_bitrate_mbps,
            video_->bitrate_mbps(video_->num_qualities() - 1) + 1e-9);
  EXPECT_GE(m.startup_delay_s, 0.0);
  EXPECT_LT(m.quality_switches, result.qualities.size());
}

TEST_P(SessionSweep, InferenceProducesValidTraces) {
  const sim::SessionResult result = run();
  core::VeritasConfig cfg;
  net::TcpConfig tcp;
  tcp.congestion_control = GetParam().cc;
  cfg.tcp = tcp;
  cfg.num_samples = 3;
  const core::Veritas veritas(cfg);
  const core::VeritasResult inference = veritas.infer(result.log);
  auto check_trace = [&](const trace::BandwidthTrace& t) {
    EXPECT_GE(t.duration_s(), result.log.chunks.back().end_s - cfg.delta_s);
    for (const double v : t.values_mbps()) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, cfg.max_mbps + 1e-9);
      EXPECT_TRUE(std::isfinite(v));
    }
  };
  check_trace(inference.map_trace);
  for (const auto& sample : inference.samples) check_trace(sample);
  EXPECT_TRUE(std::isfinite(inference.log_likelihood));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SessionSweep,
    ::testing::Values(
        SweepCase{trace::TraceFamily::kFccLike, "mpc", 5.0,
                  net::CongestionControl::kCubicLike},
        SweepCase{trace::TraceFamily::kFccLike, "bba", 5.0,
                  net::CongestionControl::kCubicLike},
        SweepCase{trace::TraceFamily::kFccLike, "bola", 5.0,
                  net::CongestionControl::kCubicLike},
        SweepCase{trace::TraceFamily::kFccLike, "rate_based", 5.0,
                  net::CongestionControl::kCubicLike},
        SweepCase{trace::TraceFamily::kFccLike, "random", 5.0,
                  net::CongestionControl::kCubicLike},
        SweepCase{trace::TraceFamily::kFccLike, "mpc", 30.0,
                  net::CongestionControl::kCubicLike},
        SweepCase{trace::TraceFamily::kFccLike, "mpc", 5.0,
                  net::CongestionControl::kBbrLike},
        SweepCase{trace::TraceFamily::kPoor, "mpc", 5.0,
                  net::CongestionControl::kCubicLike},
        SweepCase{trace::TraceFamily::kGood, "bba", 5.0,
                  net::CongestionControl::kCubicLike},
        SweepCase{trace::TraceFamily::kWideRange, "random", 5.0,
                  net::CongestionControl::kCubicLike},
        SweepCase{trace::TraceFamily::kSquareWave, "mpc", 5.0,
                  net::CongestionControl::kCubicLike},
        SweepCase{trace::TraceFamily::kSquareWave, "bola", 30.0,
                  net::CongestionControl::kBbrLike},
        SweepCase{trace::TraceFamily::kConstant4, "rate_based", 5.0,
                  net::CongestionControl::kCubicLike},
        SweepCase{trace::TraceFamily::kConstant4, "mpc", 5.0,
                  net::CongestionControl::kBbrLike}),
    case_name);

// Hyperparameter sweep: inference stays sane across (ε, σ) settings.
struct HyperCase {
  double epsilon, sigma;
};

// Readable, stable case names ("eps0.25_sigma0.5") instead of byte dumps.
void PrintTo(const HyperCase& c, std::ostream* os) {
  *os << "eps" << c.epsilon << "_sigma" << c.sigma;
}

class HyperSweep : public ::testing::TestWithParam<HyperCase> {};

TEST_P(HyperSweep, ConstantBandwidthRecoveredWithinEpsilon) {
  const auto gtbw = trace::BandwidthTrace::constant(4.0, 400.0, 5.0);
  video::VideoConfig vcfg = video::default_video_config();
  vcfg.duration_s = 200.0;
  const video::Video video(vcfg);
  auto abr = abr::make_abr("mpc");
  const net::NetworkPath path(gtbw, 0.08);
  const auto log = sim::run_session(video, *abr, path).log;

  core::VeritasConfig cfg;
  cfg.epsilon_mbps = GetParam().epsilon;
  cfg.sigma_mbps = GetParam().sigma;
  const core::Veritas veritas(cfg);
  const auto result = veritas.infer(log);
  EXPECT_LT(gtbw.mean_abs_diff_mbps(result.map_trace),
            std::max(1.0, 2.0 * GetParam().epsilon))
      << "epsilon " << GetParam().epsilon << " sigma " << GetParam().sigma;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HyperSweep,
    ::testing::Values(HyperCase{0.25, 0.5}, HyperCase{0.5, 0.25},
                      HyperCase{0.5, 0.5}, HyperCase{0.5, 1.0},
                      HyperCase{1.0, 0.5}, HyperCase{2.0, 0.5},
                      HyperCase{1.0, 2.0}));

}  // namespace
}  // namespace veritas
