// Piecewise-constant bandwidth traces.
//
// The paper models ground-truth bandwidth (GTBW) as a discrete process:
// the rate is constant within each window of length `interval_s` (the
// paper's δ). The same representation also carries reconstructed traces
// (Veritas posterior samples, Baseline estimates), possibly on a finer
// grid. Queries beyond the last window hold the final value, mirroring
// how trace-driven emulators keep a session running past trace end.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace veritas::trace {

/// A bandwidth time series: `values_mbps[i]` is the rate over
/// [i * interval_s, (i+1) * interval_s).
class BandwidthTrace {
 public:
  BandwidthTrace() = default;

  /// Requires interval_s > 0, at least one window and non-negative rates.
  BandwidthTrace(double interval_s, std::vector<double> values_mbps);

  /// Constant-rate trace of the given duration.
  static BandwidthTrace constant(double mbps, double duration_s,
                                 double interval_s = 1.0);

  double interval_s() const noexcept { return interval_s_; }
  std::size_t windows() const noexcept { return values_mbps_.size(); }
  double duration_s() const noexcept {
    return interval_s_ * static_cast<double>(values_mbps_.size());
  }
  std::span<const double> values_mbps() const noexcept { return values_mbps_; }

  /// Rate (Mbps) at time t >= 0; holds the last value past the end.
  double at(double t_s) const;

  /// Window index containing time t (clamped to the last window).
  std::size_t window_index(double t_s) const;

  /// Where window `idx` ends: the earliest time window_index places in
  /// a later window. Usually (idx + 1) * interval_s(), but that product
  /// can round below the boundary window_index sees (3 * 0.7 / 0.7 is
  /// 2.9999999999999996), so a loop stepping to it would never leave
  /// window idx. Requires idx + 1 < windows().
  double window_end_s(std::size_t idx) const;

  /// Integral of the rate over [a, b], in megabits. Requires a <= b.
  double integrate_mbit(double a_s, double b_s) const;

  /// Average rate (Mbps) over [a, b]. Requires a < b.
  double average_mbps(double a_s, double b_s) const;

  /// Time needed to transfer `mbits` starting at `start_s`, assuming the
  /// transfer consumes the full rate. Requires mbits >= 0. Returns +inf
  /// when the trace rate is 0 from some point on and data remains.
  double time_to_transfer_s(double mbits, double start_s) const;

  /// Resamples onto a new window size (averaging within new windows).
  BandwidthTrace resampled(double new_interval_s) const;

  /// Mean absolute difference in Mbps against another trace, evaluated on
  /// a uniform grid of `samples` points over the overlap of both traces.
  double mean_abs_diff_mbps(const BandwidthTrace& other,
                            std::size_t samples = 1000) const;

 private:
  double interval_s_ = 1.0;
  std::vector<double> values_mbps_;
};

}  // namespace veritas::trace
