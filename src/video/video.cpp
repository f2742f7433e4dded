#include "video/video.hpp"

#include <algorithm>
#include <cmath>

#include "util/expects.hpp"
#include "util/rng.hpp"

namespace veritas::video {

namespace {
// Calibration of ssim_model (see header): solve 1 - a*r^-b through the
// paper's two endpoints (0.1 Mbps, 0.908) and (4.0 Mbps, 0.986).
constexpr double kSsimAlpha = 0.02841;
constexpr double kSsimBeta = 0.5097;
}  // namespace

double ssim_model(double bitrate_mbps, double difficulty) {
  VERITAS_EXPECTS(bitrate_mbps > 0.0);
  VERITAS_EXPECTS(difficulty > 0.0);
  const double deficit =
      kSsimAlpha * difficulty * std::pow(bitrate_mbps, -kSsimBeta);
  return std::clamp(1.0 - deficit, 0.0, 0.99999);
}

double ssim_db(double ssim) {
  VERITAS_EXPECTS(ssim >= 0.0 && ssim < 1.0);
  return -10.0 * std::log10(1.0 - ssim);
}

Video::Video(VideoConfig config) : config_(std::move(config)) {
  VERITAS_EXPECTS(config_.duration_s > 0.0);
  VERITAS_EXPECTS(config_.chunk_duration_s > 0.0);
  VERITAS_EXPECTS(!config_.ladder.empty());
  VERITAS_EXPECTS(config_.vbr_sigma >= 0.0 && config_.ssim_sigma >= 0.0);
  for (std::size_t q = 1; q < config_.ladder.size(); ++q) {
    VERITAS_EXPECTS(config_.ladder[q].bitrate_mbps >
                    config_.ladder[q - 1].bitrate_mbps);
  }
  VERITAS_EXPECTS(config_.ladder.front().bitrate_mbps > 0.0);

  num_chunks_ = static_cast<std::size_t>(
      std::floor(config_.duration_s / config_.chunk_duration_s + 0.5));
  VERITAS_EXPECTS(num_chunks_ >= 1);

  util::Rng rng(config_.seed);
  const std::size_t levels = config_.ladder.size();
  size_jitter_.reserve(num_chunks_);
  ssim_.reserve(num_chunks_ * levels);
  ssim_db_.reserve(num_chunks_ * levels);
  for (std::size_t n = 0; n < num_chunks_; ++n) {
    // Mean-corrected lognormal: E[jitter] == 1 so expected sizes match
    // the nominal bitrate.
    const double s = config_.vbr_sigma;
    size_jitter_.push_back(
        s > 0.0 ? rng.lognormal(-0.5 * s * s, s) : 1.0);
    // Content difficulty: multiplicative factor on the SSIM deficit.
    const double d = config_.ssim_sigma;
    const double difficulty = std::clamp(
        d > 0.0 ? rng.lognormal(-0.5 * d * d, d) : 1.0, 0.5, 2.0);
    for (const QualityLevel& level : config_.ladder) {
      ssim_.push_back(ssim_model(level.bitrate_mbps, difficulty));
      ssim_db_.push_back(ssim_db(ssim_.back()));
    }
  }
}

double Video::chunk_size_bytes(std::size_t chunk, std::size_t quality) const {
  VERITAS_EXPECTS(chunk < num_chunks_);
  VERITAS_EXPECTS(quality < config_.ladder.size());
  const double nominal_bytes = config_.ladder[quality].bitrate_mbps * 1e6 /
                               8.0 * config_.chunk_duration_s;
  return nominal_bytes * size_jitter_[chunk];
}

double Video::chunk_ssim(std::size_t chunk, std::size_t quality) const {
  VERITAS_EXPECTS(chunk < num_chunks_);
  VERITAS_EXPECTS(quality < config_.ladder.size());
  return ssim_[chunk * config_.ladder.size() + quality];
}

double Video::chunk_ssim_db(std::size_t chunk, std::size_t quality) const {
  VERITAS_EXPECTS(chunk < num_chunks_);
  VERITAS_EXPECTS(quality < config_.ladder.size());
  return ssim_db_[chunk * config_.ladder.size() + quality];
}

double Video::bitrate_mbps(std::size_t quality) const {
  VERITAS_EXPECTS(quality < config_.ladder.size());
  return config_.ladder[quality].bitrate_mbps;
}

Video Video::with_ladder(Ladder ladder) const {
  VideoConfig cfg = config_;
  cfg.ladder = std::move(ladder);
  // Same seed -> same per-chunk jitter/difficulty: identical content.
  return Video(cfg);
}

}  // namespace veritas::video
