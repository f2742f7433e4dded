// Tests of the benchmark's own statistics: percentile selection under the
// ten-beyond rule, median, and open-loop timing from the due time.
//
//   cmake --build .bench_build --target perfbench_tests
//   .bench_build/perfbench_tests
#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "bench_stats.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v = one_to(100);
  EXPECT_EQ(percentile(v, 50), 50);
  EXPECT_EQ(percentile(v, 90), 90);
  EXPECT_EQ(percentile(v, 99), 99);
  EXPECT_EQ(percentile(v, 100), 100);
  EXPECT_EQ(percentile(one_to(1), 99), 1);
  EXPECT_EQ(percentile({}, 50), 0);
}

TEST(Percentile, TenBeyondRuleAtTheBoundary) {
  EXPECT_TRUE(supports_percentile(100, 90));   // rank 90, ten beyond
  EXPECT_FALSE(supports_percentile(99, 90));   // rank 90, nine beyond
  EXPECT_TRUE(supports_percentile(1000, 99));
  EXPECT_FALSE(supports_percentile(999, 99));
  EXPECT_TRUE(supports_percentile(20, 50));
  EXPECT_FALSE(supports_percentile(19, 50));
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
}

TEST(Percentile, SmallSampleCounts) {
  EXPECT_FALSE(supports_percentile(0, 50));
  EXPECT_EQ(samples_beyond(0, 50), 0u);
  EXPECT_FALSE(supports_percentile(1, 50));
  EXPECT_FALSE(supports_percentile(10, 1));   // rank 1, nine beyond
  EXPECT_TRUE(supports_percentile(11, 1));
  EXPECT_EQ(percentile_index(3, 50), 1u);
  EXPECT_EQ(percentile_index(3, 0.1), 0u);
}

TEST(Aggregate, WindowedPercentileIsTheMedianOfWindows) {
  // Five windows of 20; one window holds a stall that inflates its p90.
  std::vector<double> v;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 20; ++i) v.push_back(w == 2 ? 1000.0 + i : i);
  }
  EXPECT_EQ(windowed_percentile(v, 90, 5), 18);
  EXPECT_EQ(percentile(v, 90), 1010);  // the pooled tail sees the stall
  // A remainder joins the last window; fewer samples than windows pools.
  v.push_back(5000.0);
  EXPECT_EQ(windowed_percentile(v, 90, 5), 18);
  EXPECT_EQ(windowed_percentile({1, 2, 3}, 50, 5), 2);
  EXPECT_EQ(windowed_percentile({}, 50, 5), 0);
}

TEST(Aggregate, MedianOddEvenEmpty) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({7}), 7);
  EXPECT_EQ(median({}), 0);
  const std::vector<double> v{1, 2, 3, 10};
  EXPECT_EQ(mean(v), 4);
}

TEST(OpenLoop, DueTimesFollowTheRate) {
  const Clock::time_point start{};
  const OpenLoopSchedule schedule(start, 1000.0);
  EXPECT_EQ(schedule.due(0), start);
  EXPECT_EQ(schedule.due(10), start + std::chrono::milliseconds(10));
  EXPECT_DOUBLE_EQ(schedule.ms_since_due(10, start + std::chrono::milliseconds(12)),
                   2.0);
  EXPECT_DOUBLE_EQ(schedule.ms_since_due(10, start + std::chrono::milliseconds(9)),
                   -1.0);
}

TEST(OpenLoop, TurnaroundCountsGeneratorLateness) {
  // The generator stalls for 20 ms at t = 0, then submits everything due
  // so far at once; each query then takes 1 ms. Timed from the due time,
  // the stall shows up in every query it delayed; timed from the
  // submission it would vanish.
  const Clock::time_point start{};
  const OpenLoopSchedule schedule(start, 1000.0);
  const Clock::time_point resumed = start + std::chrono::milliseconds(20);
  for (std::size_t i = 0; i < 20; ++i) {
    const double lateness = schedule.ms_since_due(i, resumed);
    const Clock::time_point done = resumed + std::chrono::milliseconds(1);
    EXPECT_DOUBLE_EQ(lateness, 20.0 - static_cast<double>(i));
    EXPECT_DOUBLE_EQ(schedule.ms_since_due(i, done), lateness + 1.0);
    EXPECT_DOUBLE_EQ(us_between(resumed, done) * 1e-3, 1.0);
  }
}

}  // namespace
}  // namespace perfbench
