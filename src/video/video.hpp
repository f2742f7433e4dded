// The video being streamed: a quality ladder plus per-chunk variable
// bitrate (VBR) sizes and per-chunk SSIM values.
//
// Substitutes for the paper's pre-recorded 10-minute clip (DESIGN.md §3):
// sizes follow a mean-corrected lognormal around the nominal bitrate and
// SSIM follows a saturating power-law in bitrate calibrated to the
// paper's endpoints (session-mean 0.908 at the lowest quality, 0.986 at
// the highest; §4.1). Deterministic in the seed.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace veritas::video {

/// One rung of the quality ladder.
struct QualityLevel {
  std::string name;      ///< e.g. "480p"
  double bitrate_mbps;   ///< nominal encoding bitrate
};

/// An ordered quality ladder (ascending bitrate).
using Ladder = std::vector<QualityLevel>;

/// Parameters of the synthetic video.
struct VideoConfig {
  double duration_s = 600.0;   ///< paper: 10-minute clip
  double chunk_duration_s = 2.0;
  Ladder ladder;               ///< must be non-empty, ascending bitrate
  double vbr_sigma = 0.15;     ///< lognormal size jitter (0 = CBR)
  double ssim_sigma = 0.10;    ///< per-chunk encoding-difficulty jitter
  std::uint64_t seed = 42;     ///< drives per-chunk size/difficulty draws
};

/// Immutable synthetic video: chunk sizes and SSIM per (chunk, quality).
class Video {
 public:
  explicit Video(VideoConfig config);

  std::size_t num_chunks() const noexcept { return num_chunks_; }
  double chunk_duration_s() const noexcept { return config_.chunk_duration_s; }
  double duration_s() const noexcept {
    return static_cast<double>(num_chunks_) * config_.chunk_duration_s;
  }
  const Ladder& ladder() const noexcept { return config_.ladder; }
  std::size_t num_qualities() const noexcept { return config_.ladder.size(); }

  /// Encoded size in bytes of chunk `chunk` at quality `quality`.
  double chunk_size_bytes(std::size_t chunk, std::size_t quality) const;

  /// SSIM index of chunk `chunk` at quality `quality` (in (0, 1)):
  /// ssim_model(bitrate, difficulty), tabled at construction.
  double chunk_ssim(std::size_t chunk, std::size_t quality) const;

  /// ssim_db(chunk_ssim(chunk, quality)), tabled at construction.
  double chunk_ssim_db(std::size_t chunk, std::size_t quality) const;

  /// Nominal bitrate of a quality level, Mbps.
  double bitrate_mbps(std::size_t quality) const;

  /// A copy of this video re-encoded with a different ladder but identical
  /// per-chunk content difficulty (for the "change of qualities"
  /// counterfactual, paper Fig. 11: same content, new ladder).
  Video with_ladder(Ladder ladder) const;

 private:
  VideoConfig config_;
  std::size_t num_chunks_;
  std::vector<double> size_jitter_;
  // Indexed [chunk * num_qualities() + quality], so a replay's metrics
  // make no transcendental call per chunk.
  std::vector<double> ssim_;
  std::vector<double> ssim_db_;
};

/// SSIM of a stream encoded at `bitrate_mbps` with the given per-chunk
/// difficulty factor (1.0 = average content). Saturating power-law
/// calibrated so difficulty 1.0 yields 0.908 at 0.1 Mbps and 0.986 at
/// 4.0 Mbps.
double ssim_model(double bitrate_mbps, double difficulty = 1.0);

/// SSIM in decibels: -10 log10(1 - ssim). Used by quality-aware ABRs.
double ssim_db(double ssim);

}  // namespace veritas::video
