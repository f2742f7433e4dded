#include <gtest/gtest.h>

#include <vector>

#include "abr/abr.hpp"
#include "abr/abr_factory.hpp"
#include "abr/bba.hpp"
#include "abr/bola.hpp"
#include "abr/fixed_abr.hpp"
#include "abr/mpc.hpp"
#include "abr/random_abr.hpp"
#include "abr/rate_based.hpp"
#include "util/expects.hpp"
#include "video/ladder_presets.hpp"

namespace veritas::abr {
namespace {

video::Video test_video() { return video::Video(video::default_video_config()); }

DownloadedChunk chunk_with_throughput(double mbps, std::size_t index = 0) {
  DownloadedChunk c;
  c.chunk_index = index;
  c.size_bytes = 250000.0;
  c.duration_s = c.size_bytes * 8.0 / 1e6 / mbps;
  return c;
}

AbrContext make_context(const video::Video& video, double buffer_s,
                        std::span<const DownloadedChunk> history = {}) {
  AbrContext ctx;
  ctx.video = &video;
  ctx.next_chunk = 10;
  ctx.buffer_s = buffer_s;
  ctx.buffer_capacity_s = 5.0;
  ctx.history = history;
  return ctx;
}

TEST(HarmonicMean, MatchesDefinition) {
  std::vector<DownloadedChunk> history{chunk_with_throughput(2.0),
                                       chunk_with_throughput(4.0)};
  // Harmonic mean of {2, 4} = 8/3.
  EXPECT_NEAR(harmonic_mean_throughput(history, 5, 1.0), 8.0 / 3.0, 1e-9);
}

TEST(HarmonicMean, UsesOnlyRecentWindow) {
  std::vector<DownloadedChunk> history{chunk_with_throughput(100.0),
                                       chunk_with_throughput(2.0),
                                       chunk_with_throughput(2.0)};
  EXPECT_NEAR(harmonic_mean_throughput(history, 2, 1.0), 2.0, 1e-9);
}

TEST(HarmonicMean, FallbackWithNoHistory) {
  EXPECT_DOUBLE_EQ(harmonic_mean_throughput({}, 5, 1.5), 1.5);
}

TEST(Bba, LowBufferPicksLowest) {
  const video::Video v = test_video();
  Bba bba;
  EXPECT_EQ(bba.choose_quality(make_context(v, 0.2)), 0u);
}

TEST(Bba, HighBufferPicksHighest) {
  const video::Video v = test_video();
  Bba bba;
  EXPECT_EQ(bba.choose_quality(make_context(v, 4.8)), v.num_qualities() - 1);
}

TEST(Bba, MonotoneInBuffer) {
  const video::Video v = test_video();
  Bba bba;
  std::size_t prev = 0;
  for (double buffer = 0.0; buffer <= 5.0; buffer += 0.25) {
    const std::size_t q = bba.choose_quality(make_context(v, buffer));
    EXPECT_GE(q, prev);
    prev = q;
  }
}

TEST(Bba, IgnoresThroughputHistory) {
  const video::Video v = test_video();
  Bba bba;
  std::vector<DownloadedChunk> fast{chunk_with_throughput(100.0)};
  std::vector<DownloadedChunk> slow{chunk_with_throughput(0.1)};
  EXPECT_EQ(bba.choose_quality(make_context(v, 2.5, fast)),
            bba.choose_quality(make_context(v, 2.5, slow)));
}

TEST(Mpc, HighThroughputPicksTopQuality) {
  const video::Video v = test_video();
  Mpc mpc;
  std::vector<DownloadedChunk> history;
  for (int i = 0; i < 5; ++i) history.push_back(chunk_with_throughput(50.0, i));
  EXPECT_EQ(mpc.choose_quality(make_context(v, 4.0, history)),
            v.num_qualities() - 1);
}

TEST(Mpc, LowThroughputPicksLowQuality) {
  const video::Video v = test_video();
  Mpc mpc;
  std::vector<DownloadedChunk> history;
  for (int i = 0; i < 5; ++i) history.push_back(chunk_with_throughput(0.05, i));
  EXPECT_EQ(mpc.choose_quality(make_context(v, 1.0, history)), 0u);
}

TEST(Mpc, EmptyBufferMoreConservativeThanFullBuffer) {
  const video::Video v = test_video();
  std::vector<DownloadedChunk> history;
  for (int i = 0; i < 5; ++i) history.push_back(chunk_with_throughput(2.0, i));
  Mpc mpc_low;
  const std::size_t q_low = mpc_low.choose_quality(make_context(v, 0.0, history));
  Mpc mpc_high;
  const std::size_t q_high =
      mpc_high.choose_quality(make_context(v, 4.5, history));
  EXPECT_LE(q_low, q_high);
}

TEST(Mpc, ResetClearsState) {
  const video::Video v = test_video();
  Mpc mpc;
  std::vector<DownloadedChunk> history{chunk_with_throughput(10.0)};
  (void)mpc.choose_quality(make_context(v, 3.0, history));
  mpc.reset();
  // After reset, behaves like a fresh instance.
  Mpc fresh;
  EXPECT_EQ(mpc.choose_quality(make_context(v, 3.0, history)),
            fresh.choose_quality(make_context(v, 3.0, history)));
}

TEST(Mpc, RobustDiscountLowersChoice) {
  const video::Video v = test_video();
  // Volatile history -> robust MPC discounts its prediction.
  std::vector<DownloadedChunk> volatile_history;
  for (int i = 0; i < 6; ++i) {
    volatile_history.push_back(chunk_with_throughput(i % 2 ? 8.0 : 1.0, i));
  }
  MpcConfig robust_cfg;
  robust_cfg.robust = true;
  MpcConfig plain_cfg;
  plain_cfg.robust = false;
  Mpc robust(robust_cfg), plain(plain_cfg);
  // Feed the same history one chunk at a time so the robust error
  // tracker sees the prediction misses.
  std::size_t q_robust = 0, q_plain = 0;
  for (std::size_t n = 1; n <= volatile_history.size(); ++n) {
    std::span<const DownloadedChunk> h(volatile_history.data(), n);
    q_robust = robust.choose_quality(make_context(v, 3.0, h));
    q_plain = plain.choose_quality(make_context(v, 3.0, h));
  }
  EXPECT_LE(q_robust, q_plain);
}

TEST(Mpc, RejectsNegativeRebufferPenalty) {
  MpcConfig cfg;
  cfg.rebuffer_penalty = -0.5;
  EXPECT_THROW(Mpc{cfg}, veritas::ContractViolation);
}

TEST(Mpc, RejectsNegativeSwitchPenalty) {
  MpcConfig cfg;
  cfg.switch_penalty = -1.0;
  EXPECT_THROW(Mpc{cfg}, veritas::ContractViolation);
}

TEST(Bola, LowBufferPicksLowest) {
  const video::Video v = test_video();
  Bola bola;
  EXPECT_EQ(bola.choose_quality(make_context(v, 0.1)), 0u);
}

TEST(Bola, FullBufferPicksHigh) {
  const video::Video v = test_video();
  Bola bola;
  const std::size_t q = bola.choose_quality(make_context(v, 5.0));
  EXPECT_GE(q, v.num_qualities() - 2);
}

TEST(Bola, MonotoneInBuffer) {
  const video::Video v = test_video();
  Bola bola;
  std::size_t prev = 0;
  for (double buffer = 0.0; buffer <= 5.0; buffer += 0.5) {
    const std::size_t q = bola.choose_quality(make_context(v, buffer));
    EXPECT_GE(q, prev) << "buffer " << buffer;
    prev = q;
  }
}

TEST(RateBased, PicksHighestSustainableRung) {
  const video::Video v = test_video();
  RateBased rb;
  std::vector<DownloadedChunk> history{chunk_with_throughput(2.0)};
  // 0.9 * 2.0 = 1.8 -> highest rung <= 1.8 is 1.0 Mbps (index 2).
  EXPECT_EQ(rb.choose_quality(make_context(v, 3.0, history)), 2u);
}

TEST(RateBased, FallbackWithNoHistory) {
  const video::Video v = test_video();
  RateBased rb;
  // fallback 1.0 * 0.9 = 0.9 -> rung 0.4 (index 1).
  EXPECT_EQ(rb.choose_quality(make_context(v, 3.0)), 1u);
}

TEST(RandomAbr, DeterministicAfterReset) {
  const video::Video v = test_video();
  RandomAbr r(77);
  std::vector<std::size_t> first;
  for (int i = 0; i < 20; ++i) {
    first.push_back(r.choose_quality(make_context(v, 2.0)));
  }
  r.reset();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(r.choose_quality(make_context(v, 2.0)), first[i]);
  }
}

TEST(RandomAbr, CoversAllQualities) {
  const video::Video v = test_video();
  RandomAbr r(78);
  std::vector<bool> seen(v.num_qualities(), false);
  for (int i = 0; i < 200; ++i) {
    seen[r.choose_quality(make_context(v, 2.0))] = true;
  }
  for (const bool s : seen) EXPECT_TRUE(s);
}

TEST(FixedAbr, AlwaysSameQuality) {
  const video::Video v = test_video();
  FixedAbr f(3);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(f.choose_quality(make_context(v, double(i) / 2)), 3u);
  }
}

TEST(FixedAbr, ClampsToLadder) {
  const video::Video v = test_video();
  FixedAbr f(99);
  EXPECT_EQ(f.choose_quality(make_context(v, 2.0)), v.num_qualities() - 1);
}

TEST(Factory, CreatesAllNamedAlgorithms) {
  EXPECT_EQ(make_abr("mpc")->name(), "mpc");
  EXPECT_EQ(make_abr("bba")->name(), "bba");
  EXPECT_EQ(make_abr("bola")->name(), "bola");
  EXPECT_EQ(make_abr("rate_based")->name(), "rate_based");
  EXPECT_EQ(make_abr("random", 1)->name(), "random");
  EXPECT_EQ(make_abr("fixed:2")->name(), "fixed");
}

TEST(Factory, FixedParsesLevel) {
  const video::Video v = test_video();
  auto abr = make_abr("fixed:1");
  AbrContext ctx;
  ctx.video = &v;
  EXPECT_EQ(abr->choose_quality(ctx), 1u);
}

TEST(Factory, RejectsUnknownNames) {
  EXPECT_THROW(make_abr("pensieve"), veritas::ContractViolation);
  EXPECT_THROW(make_abr("fixed:abc"), veritas::ContractViolation);
}

}  // namespace
}  // namespace veritas::abr
