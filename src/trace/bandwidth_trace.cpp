#include "trace/bandwidth_trace.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/expects.hpp"

namespace veritas::trace {

BandwidthTrace::BandwidthTrace(double interval_s,
                               std::vector<double> values_mbps)
    : interval_s_(interval_s), values_mbps_(std::move(values_mbps)) {
  VERITAS_EXPECTS(interval_s_ > 0.0);
  VERITAS_EXPECTS(!values_mbps_.empty());
  for (const double v : values_mbps_) VERITAS_EXPECTS(v >= 0.0);
}

BandwidthTrace BandwidthTrace::constant(double mbps, double duration_s,
                                        double interval_s) {
  VERITAS_EXPECTS(duration_s > 0.0 && interval_s > 0.0);
  const auto n = static_cast<std::size_t>(std::ceil(duration_s / interval_s));
  return BandwidthTrace(interval_s, std::vector<double>(std::max<std::size_t>(n, 1), mbps));
}

double BandwidthTrace::at(double t_s) const {
  VERITAS_EXPECTS(t_s >= 0.0);
  return values_mbps_[window_index(t_s)];
}

std::size_t BandwidthTrace::window_index(double t_s) const {
  VERITAS_EXPECTS(t_s >= 0.0);
  const auto idx = static_cast<std::size_t>(t_s / interval_s_);
  return std::min(idx, values_mbps_.size() - 1);
}

double BandwidthTrace::window_end_s(std::size_t idx) const {
  VERITAS_EXPECTS(idx + 1 < values_mbps_.size());
  double end = static_cast<double>(idx + 1) * interval_s_;
  while (static_cast<std::size_t>(end / interval_s_) <= idx) {
    end = std::nextafter(end, std::numeric_limits<double>::infinity());
  }
  return end;
}

double BandwidthTrace::integrate_mbit(double a_s, double b_s) const {
  VERITAS_EXPECTS(a_s >= 0.0 && a_s <= b_s);
  double total = 0.0;
  double t = a_s;
  while (t < b_s) {
    const std::size_t idx = window_index(t);
    const double window_end =
        (idx + 1 == values_mbps_.size())
            ? std::numeric_limits<double>::infinity()  // hold last value
            : window_end_s(idx);
    const double seg_end = std::min(b_s, window_end);
    total += values_mbps_[idx] * (seg_end - t);
    t = seg_end;
  }
  return total;
}

double BandwidthTrace::average_mbps(double a_s, double b_s) const {
  VERITAS_EXPECTS(b_s > a_s);
  return integrate_mbit(a_s, b_s) / (b_s - a_s);
}

double BandwidthTrace::time_to_transfer_s(double mbits, double start_s) const {
  VERITAS_EXPECTS(mbits >= 0.0 && start_s >= 0.0);
  if (mbits == 0.0) return 0.0;
  double remaining = mbits;
  double t = start_s;
  for (;;) {
    const std::size_t idx = window_index(t);
    const double rate = values_mbps_[idx];
    if (idx + 1 == values_mbps_.size()) {  // the last value holds forever
      if (rate <= 0.0) return std::numeric_limits<double>::infinity();
      return (t - start_s) + remaining / rate;
    }
    const double window_end = window_end_s(idx);
    const double capacity = rate * (window_end - t);
    if (capacity >= remaining) {
      return (t - start_s) + (rate > 0.0
                                  ? remaining / rate
                                  : std::numeric_limits<double>::infinity());
    }
    remaining -= capacity;
    t = window_end;
  }
}

BandwidthTrace BandwidthTrace::resampled(double new_interval_s) const {
  VERITAS_EXPECTS(new_interval_s > 0.0);
  const auto n = static_cast<std::size_t>(
      std::ceil(duration_s() / new_interval_s));
  std::vector<double> values;
  values.reserve(std::max<std::size_t>(n, 1));
  for (std::size_t i = 0; i < std::max<std::size_t>(n, 1); ++i) {
    const double a = static_cast<double>(i) * new_interval_s;
    const double b = std::min(a + new_interval_s, duration_s());
    values.push_back(b > a ? average_mbps(a, b) : at(a));
  }
  return BandwidthTrace(new_interval_s, std::move(values));
}

double BandwidthTrace::mean_abs_diff_mbps(const BandwidthTrace& other,
                                          std::size_t samples) const {
  VERITAS_EXPECTS(samples >= 1);
  const double horizon = std::min(duration_s(), other.duration_s());
  double acc = 0.0;
  for (std::size_t i = 0; i < samples; ++i) {
    // Sample window midpoints of a uniform grid over the overlap.
    const double t =
        horizon * (static_cast<double>(i) + 0.5) / static_cast<double>(samples);
    acc += std::abs(at(t) - other.at(t));
  }
  return acc / static_cast<double>(samples);
}

}  // namespace veritas::trace
