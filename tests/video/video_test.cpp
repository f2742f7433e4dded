#include "video/video.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/expects.hpp"
#include "video/ladder_presets.hpp"

namespace veritas::video {
namespace {

TEST(SsimModel, CalibratedEndpoints) {
  // Paper §4.1: lowest-quality mean 0.908, highest 0.986.
  EXPECT_NEAR(ssim_model(0.1), 0.908, 0.002);
  EXPECT_NEAR(ssim_model(4.0), 0.986, 0.002);
}

TEST(SsimModel, MonotoneInBitrate) {
  double prev = 0.0;
  for (double r = 0.1; r <= 10.0; r *= 1.5) {
    const double s = ssim_model(r);
    EXPECT_GT(s, prev);
    prev = s;
  }
}

TEST(SsimModel, DifficultyLowersSsim) {
  EXPECT_LT(ssim_model(1.0, 1.5), ssim_model(1.0, 1.0));
  EXPECT_GT(ssim_model(1.0, 0.7), ssim_model(1.0, 1.0));
}

TEST(SsimModel, StaysBelowOne) {
  EXPECT_LT(ssim_model(1000.0), 1.0);
}

TEST(SsimDb, KnownValue) {
  // ssim 0.99 -> -10*log10(0.01) = 20 dB.
  EXPECT_NEAR(ssim_db(0.99), 20.0, 1e-9);
}

TEST(SsimDb, RejectsOne) {
  EXPECT_THROW(ssim_db(1.0), veritas::ContractViolation);
}

TEST(Video, ChunkCountFromDuration) {
  const Video v(default_video_config());
  EXPECT_EQ(v.num_chunks(), 300u);  // 600 s / 2 s
  EXPECT_DOUBLE_EQ(v.duration_s(), 600.0);
}

TEST(Video, SizesScaleWithBitrate) {
  const Video v(default_video_config());
  for (std::size_t n = 0; n < 10; ++n) {
    for (std::size_t q = 1; q < v.num_qualities(); ++q) {
      EXPECT_GT(v.chunk_size_bytes(n, q), v.chunk_size_bytes(n, q - 1));
    }
  }
}

TEST(Video, SizesMatchNominalOnAverage) {
  const Video v(default_video_config());
  for (std::size_t q = 0; q < v.num_qualities(); ++q) {
    double total = 0.0;
    for (std::size_t n = 0; n < v.num_chunks(); ++n) {
      total += v.chunk_size_bytes(n, q);
    }
    const double mean = total / double(v.num_chunks());
    const double nominal = v.bitrate_mbps(q) * 1e6 / 8.0 * 2.0;
    EXPECT_NEAR(mean / nominal, 1.0, 0.05) << "quality " << q;
  }
}

TEST(Video, SsimMonotoneInQualityPerChunk) {
  const Video v(default_video_config());
  for (std::size_t n = 0; n < v.num_chunks(); ++n) {
    for (std::size_t q = 1; q < v.num_qualities(); ++q) {
      EXPECT_GT(v.chunk_ssim(n, q), v.chunk_ssim(n, q - 1));
    }
  }
}

TEST(Video, DeterministicInSeed) {
  const Video a(default_video_config(42));
  const Video b(default_video_config(42));
  const Video c(default_video_config(43));
  EXPECT_DOUBLE_EQ(a.chunk_size_bytes(17, 2), b.chunk_size_bytes(17, 2));
  EXPECT_NE(a.chunk_size_bytes(17, 2), c.chunk_size_bytes(17, 2));
}

TEST(Video, VbrDisabledGivesExactSizes) {
  VideoConfig cfg = default_video_config();
  cfg.vbr_sigma = 0.0;
  const Video v(cfg);
  const double nominal = v.bitrate_mbps(1) * 1e6 / 8.0 * 2.0;
  for (std::size_t n = 0; n < 10; ++n) {
    EXPECT_DOUBLE_EQ(v.chunk_size_bytes(n, 1), nominal);
  }
}

TEST(Video, WithLadderKeepsContent) {
  const Video v(default_video_config());
  const Video high = v.with_ladder(high_ladder());
  EXPECT_EQ(high.num_chunks(), v.num_chunks());
  // Same per-chunk jitter: size ratio equals bitrate ratio.
  const double ratio = high.chunk_size_bytes(5, 0) / v.chunk_size_bytes(5, 0);
  EXPECT_NEAR(ratio, high.bitrate_mbps(0) / v.bitrate_mbps(0), 1e-9);
}

TEST(Video, RejectsInvalidConfig) {
  VideoConfig cfg = default_video_config();
  cfg.ladder.clear();
  EXPECT_THROW(Video{cfg}, veritas::ContractViolation);

  cfg = default_video_config();
  cfg.ladder = {{"a", 2.0}, {"b", 1.0}};  // descending
  EXPECT_THROW(Video{cfg}, veritas::ContractViolation);
}

TEST(Video, BoundsChecked) {
  const Video v(default_video_config());
  EXPECT_THROW(v.chunk_size_bytes(v.num_chunks(), 0),
               veritas::ContractViolation);
  EXPECT_THROW(v.chunk_ssim(0, v.num_qualities()),
               veritas::ContractViolation);
  EXPECT_THROW(v.chunk_ssim_db(v.num_chunks(), 0),
               veritas::ContractViolation);
}

// The tables hold exactly what the model computes: ssim_model at
// difficulty 1 when difficulty jitter is off, and ssim_db of each entry.
TEST(Video, SsimTablesMatchTheModel) {
  VideoConfig cfg = default_video_config();
  cfg.ssim_sigma = 0.0;
  const Video flat(cfg);
  const Video v(default_video_config());
  for (std::size_t n = 0; n < v.num_chunks(); ++n) {
    for (std::size_t q = 0; q < v.num_qualities(); ++q) {
      EXPECT_EQ(flat.chunk_ssim(n, q), ssim_model(flat.bitrate_mbps(q)));
      EXPECT_EQ(v.chunk_ssim_db(n, q), ssim_db(v.chunk_ssim(n, q)));
    }
  }
}

TEST(LadderPresets, DefaultCoversPaperRange) {
  const Ladder ladder = default_ladder();
  EXPECT_DOUBLE_EQ(ladder.front().bitrate_mbps, 0.1);
  EXPECT_DOUBLE_EQ(ladder.back().bitrate_mbps, 4.0);
}

TEST(LadderPresets, HighLadderDropsLowRungsAddsHigh) {
  const Ladder high = high_ladder();
  EXPECT_GE(high.front().bitrate_mbps, 1.0);
  EXPECT_DOUBLE_EQ(high.back().bitrate_mbps, 8.0);
}

TEST(LadderPresets, LowHighLadderHasTwoRungs) {
  EXPECT_EQ(low_high_ladder().size(), 2u);
}

}  // namespace
}  // namespace veritas::video
