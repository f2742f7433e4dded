// Order statistics and open-loop timing shared by every workload.
//
// Percentiles use the nearest-rank rule: the p-th percentile of n sorted
// samples is the sample at rank ceil(p/100 * n). Each workload fixes a
// tail percentile that its sample count supports with at least ten
// samples beyond it, so the tail is never one lucky or unlucky outlier;
// a run with fewer says so beside the value.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Samples a reported tail percentile must leave beyond it.
inline constexpr std::size_t kTailBeyond = 10;

/// Zero-based index of the nearest-rank p-th percentile among n samples
/// (n >= 1, 0 < p <= 100).
inline std::size_t percentile_index(std::size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return std::min(index, n - 1);
}

/// Samples strictly after the p-th percentile's rank.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - 1 - percentile_index(n, p);
}

/// Whether n samples support the p-th percentile under the ten-beyond rule.
inline bool supports_percentile(std::size_t n, double p) {
  return n > 0 && samples_beyond(n, p) >= kTailBeyond;
}

/// Nearest-rank percentile of unsorted samples (copied); 0 when empty.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t i = percentile_index(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(i),
                   samples.end());
  return samples[i];
}

/// Median with the midpoint rule for even counts; 0 when empty.
inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// Tail percentiles are taken per window and summarised by their median:
/// a host stall inflates the tail of the few windows it falls in, not the
/// reported value.
inline constexpr std::size_t kTailWindows = 10;

/// Median over `windows` consecutive, equal slices of `samples` (in
/// arrival order; a remainder joins the last slice) of each slice's p-th
/// percentile. One slice when there are fewer samples than slices.
inline double windowed_percentile(const std::vector<double>& samples,
                                  double p, std::size_t windows) {
  if (samples.size() < windows) windows = 1;
  const std::size_t width = samples.size() / windows;
  std::vector<double> per_window;
  for (std::size_t k = 0; k < windows; ++k) {
    const auto first = samples.begin() + static_cast<long>(k * width);
    const auto last = k + 1 == windows
                          ? samples.end()
                          : first + static_cast<long>(width);
    per_window.push_back(percentile(std::vector<double>(first, last), p));
  }
  return median(per_window);
}

inline double mean(std::span<const double> samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

/// Open-loop arrival schedule: request i is due at start + i / rate.
/// Turnaround is measured from the due time, so a stalled generator or
/// a backlog charges its wait to every request it delays.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(Clock::time_point start, double rate_per_s)
      : start_(start), interval_(1.0 / rate_per_s) {}

  Clock::time_point due(std::size_t i) const {
    return start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(interval_ *
                                                      static_cast<double>(i)));
  }

  /// Milliseconds from request i's due time to `t` (negative when early).
  double ms_since_due(std::size_t i, Clock::time_point t) const {
    return std::chrono::duration<double, std::milli>(t - due(i)).count();
  }

 private:
  Clock::time_point start_;
  double interval_;
};

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

}  // namespace perfbench
