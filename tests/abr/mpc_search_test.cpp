// Differential test of Mpc's branch-and-bound horizon search against an
// exhaustive search with the same throughput predictor and per-node
// arithmetic, which scores every one of the levels^horizon sequences.
// The two must agree on every decision (ties included) and on whole
// sessions.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "abr/abr.hpp"
#include "abr/mpc.hpp"
#include "net/network_path.hpp"
#include "sim/session.hpp"
#include "trace/trace_generator.hpp"
#include "util/rng.hpp"
#include "video/ladder_presets.hpp"

namespace veritas::abr {
namespace {

/// RobustMPC with the exhaustive search: the reference for Mpc.
class ExhaustiveMpc final : public AbrAlgorithm {
 public:
  explicit ExhaustiveMpc(MpcConfig config) : config_(config) {}

  std::size_t choose_quality(const AbrContext& context) override {
    const video::Video& video = *context.video;
    const std::size_t levels = video.num_qualities();
    const double predicted_mbps =
        std::max(predict_throughput(context), 1e-6);
    const double chunk_s = video.chunk_duration_s();
    const std::size_t remaining = video.num_chunks() - context.next_chunk;
    const std::size_t horizon = std::min(config_.horizon, remaining);

    double best_qoe = -std::numeric_limits<double>::infinity();
    std::size_t best_first = 0;
    auto rollout = [&](auto&& self, std::size_t depth, Rollout state,
                       std::size_t first) -> void {
      if (depth == horizon) {
        if (state.qoe > best_qoe) {
          best_qoe = state.qoe;
          best_first = first;
        } else if (state.qoe == best_qoe) {
          ++ties_;
        }
        return;
      }
      const std::size_t chunk = context.next_chunk + depth;
      for (std::size_t quality = 0; quality < levels; ++quality) {
        const double size_bytes = video.chunk_size_bytes(chunk, quality);
        const double bitrate = video.bitrate_mbps(quality);
        const double download_s = size_bytes * 8.0 / 1e6 / predicted_mbps;
        const double stall = std::max(0.0, download_s - state.buffer_s);
        double buffer = std::max(0.0, state.buffer_s - download_s) + chunk_s;
        buffer = std::min(buffer, context.buffer_capacity_s);
        double qoe = state.qoe + bitrate - config_.rebuffer_penalty * stall;
        if (state.prev_bitrate >= 0.0) {
          qoe -=
              config_.switch_penalty * std::abs(bitrate - state.prev_bitrate);
        }
        self(self, depth + 1, Rollout{buffer, qoe, bitrate},
             depth == 0 ? quality : first);
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

  void reset() override {
    last_quality_ = 0;
    has_last_quality_ = false;
    past_prediction_errors_.clear();
    last_prediction_mbps_ = 0.0;
    has_last_prediction_ = false;
  }

  std::string name() const override { return "mpc_exhaustive"; }

  /// Leaves that equalled the running best (lost the tie to an earlier
  /// sequence) over this instance's lifetime.
  std::size_t ties() const { return ties_; }

 private:
  struct Rollout {
    double buffer_s = 0.0;
    double qoe = 0.0;
    double prev_bitrate = -1.0;
  };

  double predict_throughput(const AbrContext& context) {
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
        context.history, config_.throughput_window,
        config_.safety_fallback_mbps);
    last_prediction_mbps_ = hm;
    has_last_prediction_ = true;
    if (!config_.robust || past_prediction_errors_.empty()) return hm;
    const double max_err = *std::max_element(past_prediction_errors_.begin(),
                                             past_prediction_errors_.end());
    return hm / (1.0 + max_err);
  }

  MpcConfig config_;
  std::size_t last_quality_ = 0;
  bool has_last_quality_ = false;
  std::vector<double> past_prediction_errors_;
  double last_prediction_mbps_ = 0.0;
  bool has_last_prediction_ = false;
  std::size_t ties_ = 0;
};

video::Ladder pick_ladder(std::int64_t which) {
  switch (which) {
    case 0:
      return video::default_ladder();
    case 1:
      return video::high_ladder();
    default:
      return video::low_high_ladder();
  }
}

TEST(MpcSearch, MatchesExhaustiveSearchOnRandomizedContexts) {
  util::Rng rng(20231);
  std::size_t decisions = 0, mismatches = 0, cbr_ties = 0;
  std::size_t truncated = 0, no_previous = 0;
  for (int trial = 0; trial < 240; ++trial) {
    video::VideoConfig vcfg = video::default_video_config(
        static_cast<std::uint64_t>(rng.uniform_int(1, 1000)));
    vcfg.ladder = pick_ladder(trial % 3);
    const bool cbr = (trial / 3) % 2 == 0;
    vcfg.vbr_sigma = cbr ? 0.0 : 0.15;
    vcfg.duration_s = 40.0 * vcfg.chunk_duration_s;
    const video::Video video(vcfg);

    MpcConfig mcfg;
    mcfg.robust = (trial / 6) % 2 == 0;
    // Mostly the deployed penalties; every fourth trial zeroes one so
    // equal-QoE sequences (and the bound at its loosest) are common.
    if (trial % 8 == 7) mcfg.switch_penalty = 0.0;
    if (trial % 8 == 3) mcfg.rebuffer_penalty = 0.0;
    const double capacity_s = (trial / 12) % 2 == 0 ? 5.0 : 30.0;

    Mpc mpc(mcfg);
    ExhaustiveMpc reference(mcfg);
    std::vector<DownloadedChunk> history;
    for (int step = 0; step < 12; ++step) {
      // Step 0 has no previous quality; the last steps sit inside the
      // final horizon so the lookahead is truncated.
      const std::size_t next_chunk =
          step >= 9 ? video.num_chunks() - static_cast<std::size_t>(12 - step)
                    : static_cast<std::size_t>(rng.uniform_int(
                          0, static_cast<std::int64_t>(video.num_chunks()) - 1));
      double buffer_s = 0.0;
      switch (rng.uniform_int(0, 3)) {
        case 0: buffer_s = 0.0; break;
        case 1: buffer_s = capacity_s / 2.0; break;
        case 2: buffer_s = capacity_s; break;
        default: buffer_s = rng.uniform(0.0, capacity_s); break;
      }
      AbrContext ctx;
      ctx.video = &video;
      ctx.next_chunk = next_chunk;
      ctx.buffer_s = buffer_s;
      ctx.buffer_capacity_s = capacity_s;
      ctx.history = history;
      if (step == 0) ++no_previous;
      if (video.num_chunks() - next_chunk < mcfg.horizon) ++truncated;

      const std::size_t ties_before = reference.ties();
      const std::size_t got = mpc.choose_quality(ctx);
      const std::size_t want = reference.choose_quality(ctx);
      ++decisions;
      if (got != want) {
        ++mismatches;
        ADD_FAILURE() << "trial " << trial << " step " << step << ": mpc "
                      << got << " vs exhaustive " << want;
      }
      if (cbr && reference.ties() > ties_before) ++cbr_ties;

      // Log-uniform throughput over 0.05-20 Mbps for the next decision.
      DownloadedChunk chunk;
      chunk.chunk_index = next_chunk;
      chunk.quality = want;
      chunk.size_bytes = video.chunk_size_bytes(next_chunk, want);
      chunk.duration_s = chunk.size_bytes * 8.0 / 1e6 /
                         std::exp(rng.uniform(std::log(0.05), std::log(20.0)));
      history.push_back(chunk);
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << decisions << " decisions";
  // The cases the search's exactness argument leans on were exercised.
  EXPECT_GT(cbr_ties, 0u);
  EXPECT_GT(truncated, 0u);
  EXPECT_GT(no_previous, 0u);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// FCC-like traces rarely stall a 30 s buffer; the poor, wide-range and
// square-wave families do, which is where the stall-aware bound prunes.
TEST(MpcSearch, SessionsMatchExhaustiveSearchBitForBit) {
  for (const auto family :
       {trace::TraceFamily::kFccLike, trace::TraceFamily::kPoor,
        trace::TraceFamily::kWideRange, trace::TraceFamily::kSquareWave}) {
    const auto traces = trace::make_traces(family, 4, 77);
    for (const bool high : {false, true}) {
      video::VideoConfig vcfg = video::default_video_config();
      if (high) vcfg.ladder = video::high_ladder();
      const video::Video video(vcfg);
      for (const double capacity_s : {5.0, 30.0}) {
        for (std::size_t t = 0; t < traces.size(); ++t) {
          SCOPED_TRACE(testing::Message()
                       << trace::family_name(family) << " trace " << t
                       << " high " << high << " buffer " << capacity_s);
          const net::NetworkPath path(traces[t], 0.08);
          sim::SessionConfig scfg;
          scfg.buffer_capacity_s = capacity_s;
          Mpc mpc;
          ExhaustiveMpc reference{MpcConfig{}};
          const sim::SessionResult got =
              sim::run_session(video, mpc, path, scfg);
          const sim::SessionResult want =
              sim::run_session(video, reference, path, scfg);
          ASSERT_EQ(got.qualities, want.qualities);
          ASSERT_EQ(got.log.size(), want.log.size());
          for (std::size_t n = 0; n < got.log.size(); ++n) {
            const auto& a = got.log.chunks[n];
            const auto& b = want.log.chunks[n];
            ASSERT_EQ(a.quality, b.quality) << "chunk " << n;
            ASSERT_TRUE(same_bits(a.size_bytes, b.size_bytes))
                << "chunk " << n;
            ASSERT_TRUE(same_bits(a.start_s, b.start_s)) << "chunk " << n;
            ASSERT_TRUE(same_bits(a.end_s, b.end_s)) << "chunk " << n;
            ASSERT_TRUE(same_bits(a.buffer_at_start_s, b.buffer_at_start_s))
                << "chunk " << n;
          }
          EXPECT_TRUE(same_bits(got.startup_delay_s, want.startup_delay_s));
          EXPECT_TRUE(same_bits(got.total_stall_s, want.total_stall_s));
          EXPECT_TRUE(same_bits(got.session_end_s, want.session_end_s));
        }
      }
    }
  }
}

// The pruning threshold is the best constant-quality leaf, but the
// incumbent is not: when a constant sequence ties the optimum held by an
// earlier DFS leaf, the earlier leaf must win. CBR rungs of 1, 2 and
// 3 Mbps, 2 s chunks, 2 Mbps predicted, 2.5 s of buffer, horizon 2 and
// no switching penalty: (0, 2) and (1, 1) both play 4 Mbps without a
// stall, every sequence starting at rung 2 stalls on its first chunk,
// and (1, 2) stalls on its second.
TEST(MpcSearch, ConstantSequenceTyingAnEarlierLeafDoesNotWin) {
  video::VideoConfig vcfg = video::default_video_config();
  vcfg.ladder = {{"low", 1.0}, {"mid", 2.0}, {"top", 3.0}};
  vcfg.vbr_sigma = 0.0;
  vcfg.duration_s = 40.0 * vcfg.chunk_duration_s;
  const video::Video video(vcfg);
  ASSERT_EQ(vcfg.chunk_duration_s, 2.0);

  MpcConfig mcfg;
  mcfg.horizon = 2;
  mcfg.switch_penalty = 0.0;
  // 500 kB in 2 s: the harmonic mean predicts 2 Mbps.
  const std::vector<DownloadedChunk> history{{0, 1, 500000.0, 2.0}};
  AbrContext ctx;
  ctx.video = &video;
  ctx.next_chunk = 1;
  ctx.buffer_s = 2.5;
  ctx.buffer_capacity_s = 30.0;
  ctx.history = history;

  Mpc mpc(mcfg);
  ExhaustiveMpc reference(mcfg);
  const std::size_t want = reference.choose_quality(ctx);
  EXPECT_EQ(want, 0u);
  EXPECT_GT(reference.ties(), 0u);
  EXPECT_EQ(mpc.choose_quality(ctx), want);
}

}  // namespace
}  // namespace veritas::abr
