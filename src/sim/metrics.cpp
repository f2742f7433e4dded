#include "sim/metrics.hpp"

#include "util/expects.hpp"

namespace veritas::sim {

QoeMetrics compute_metrics(const video::Video& video,
                           const SessionResult& result) {
  VERITAS_EXPECTS(!result.qualities.empty());
  VERITAS_EXPECTS(result.qualities.size() == video.num_chunks());

  QoeMetrics m;
  double ssim_sum = 0.0;
  double ssim_db_sum = 0.0;
  double bitrate_sum = 0.0;
  for (std::size_t n = 0; n < result.qualities.size(); ++n) {
    const std::size_t q = result.qualities[n];
    ssim_sum += video.chunk_ssim(n, q);
    ssim_db_sum += video.chunk_ssim_db(n, q);
    bitrate_sum += video.bitrate_mbps(q);
    if (n > 0 && result.qualities[n] != result.qualities[n - 1]) {
      ++m.quality_switches;
    }
  }
  const auto count = static_cast<double>(result.qualities.size());
  m.mean_ssim = ssim_sum / count;
  m.mean_ssim_db = ssim_db_sum / count;
  m.avg_bitrate_mbps = bitrate_sum / count;
  m.startup_delay_s = result.startup_delay_s;
  VERITAS_EXPECTS(result.session_end_s > 0.0);
  m.rebuffer_ratio_pct =
      100.0 * result.total_stall_s / result.session_end_s;
  return m;
}

}  // namespace veritas::sim
