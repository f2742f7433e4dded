#include "trace/bandwidth_trace.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/expects.hpp"

namespace veritas::trace {
namespace {

TEST(BandwidthTrace, BasicAccessors) {
  const BandwidthTrace t(5.0, {1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(t.interval_s(), 5.0);
  EXPECT_EQ(t.windows(), 3u);
  EXPECT_DOUBLE_EQ(t.duration_s(), 15.0);
}

TEST(BandwidthTrace, AtPicksWindow) {
  const BandwidthTrace t(5.0, {1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(t.at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(t.at(4.999), 1.0);
  EXPECT_DOUBLE_EQ(t.at(5.0), 2.0);
  EXPECT_DOUBLE_EQ(t.at(14.0), 3.0);
}

TEST(BandwidthTrace, HoldsLastValuePastEnd) {
  const BandwidthTrace t(5.0, {1.0, 2.0});
  EXPECT_DOUBLE_EQ(t.at(1000.0), 2.0);
}

TEST(BandwidthTrace, RejectsBadConstruction) {
  EXPECT_THROW(BandwidthTrace(0.0, {1.0}), veritas::ContractViolation);
  EXPECT_THROW(BandwidthTrace(1.0, {}), veritas::ContractViolation);
  EXPECT_THROW(BandwidthTrace(1.0, {-1.0}), veritas::ContractViolation);
}

TEST(BandwidthTrace, ConstantFactory) {
  const BandwidthTrace t = BandwidthTrace::constant(4.0, 10.0, 2.0);
  EXPECT_EQ(t.windows(), 5u);
  EXPECT_DOUBLE_EQ(t.at(7.0), 4.0);
}

TEST(BandwidthTrace, IntegrateWithinOneWindow) {
  const BandwidthTrace t(5.0, {2.0, 4.0});
  EXPECT_DOUBLE_EQ(t.integrate_mbit(1.0, 3.0), 4.0);  // 2 Mbps * 2 s
}

TEST(BandwidthTrace, IntegrateAcrossWindows) {
  const BandwidthTrace t(5.0, {2.0, 4.0});
  // [3, 7]: 2s at 2 Mbps + 2s at 4 Mbps = 12 Mbit.
  EXPECT_DOUBLE_EQ(t.integrate_mbit(3.0, 7.0), 12.0);
}

TEST(BandwidthTrace, IntegratePastEndUsesLastValue) {
  const BandwidthTrace t(5.0, {2.0, 4.0});
  EXPECT_DOUBLE_EQ(t.integrate_mbit(10.0, 12.0), 8.0);
}

TEST(BandwidthTrace, IntegrateEmptyIntervalIsZero) {
  const BandwidthTrace t(5.0, {2.0});
  EXPECT_DOUBLE_EQ(t.integrate_mbit(3.0, 3.0), 0.0);
}

TEST(BandwidthTrace, AverageMbps) {
  const BandwidthTrace t(5.0, {2.0, 4.0});
  EXPECT_DOUBLE_EQ(t.average_mbps(0.0, 10.0), 3.0);
}

TEST(BandwidthTrace, TimeToTransferSimple) {
  const BandwidthTrace t(5.0, {8.0});
  // 8 Mbps, 4 Mbit -> 0.5 s.
  EXPECT_DOUBLE_EQ(t.time_to_transfer_s(4.0, 0.0), 0.5);
}

TEST(BandwidthTrace, TimeToTransferAcrossWindows) {
  const BandwidthTrace t(1.0, {1.0, 10.0});
  // 1 Mbit in window 0 takes the whole 1 s (capacity exactly 1 Mbit);
  // then 5 Mbit at 10 Mbps takes 0.5 s.
  EXPECT_NEAR(t.time_to_transfer_s(6.0, 0.0), 1.5, 1e-12);
}

TEST(BandwidthTrace, TimeToTransferZeroTailIsInfinite) {
  const BandwidthTrace t(1.0, {1.0, 0.0});
  EXPECT_EQ(t.time_to_transfer_s(5.0, 0.0),
            std::numeric_limits<double>::infinity());
}

TEST(BandwidthTrace, TimeToTransferZeroBits) {
  const BandwidthTrace t(1.0, {1.0});
  EXPECT_DOUBLE_EQ(t.time_to_transfer_s(0.0, 3.0), 0.0);
}

TEST(BandwidthTrace, ResampleCoarser) {
  const BandwidthTrace t(1.0, {2.0, 4.0, 6.0, 8.0});
  const BandwidthTrace r = t.resampled(2.0);
  EXPECT_EQ(r.windows(), 2u);
  EXPECT_DOUBLE_EQ(r.at(0.5), 3.0);
  EXPECT_DOUBLE_EQ(r.at(2.5), 7.0);
}

TEST(BandwidthTrace, ResampleFiner) {
  const BandwidthTrace t(2.0, {2.0, 4.0});
  const BandwidthTrace r = t.resampled(1.0);
  EXPECT_EQ(r.windows(), 4u);
  EXPECT_DOUBLE_EQ(r.at(0.5), 2.0);
  EXPECT_DOUBLE_EQ(r.at(3.5), 4.0);
}

TEST(BandwidthTrace, MeanAbsDiffZeroForSelf) {
  const BandwidthTrace t(5.0, {1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(t.mean_abs_diff_mbps(t), 0.0);
}

TEST(BandwidthTrace, MeanAbsDiffConstantOffset) {
  const BandwidthTrace a = BandwidthTrace::constant(3.0, 100.0);
  const BandwidthTrace b = BandwidthTrace::constant(5.0, 100.0);
  EXPECT_NEAR(a.mean_abs_diff_mbps(b), 2.0, 1e-12);
}

TEST(BandwidthTrace, WindowIndexClamped) {
  const BandwidthTrace t(5.0, {1.0, 2.0});
  EXPECT_EQ(t.window_index(100.0), 1u);
}

/// 0.7 s windows: 3 * 0.7 rounds to 2.0999999999999996, and
/// 2.0999999999999996 / 0.7 to 2.9999999999999996, so the product
/// (idx + 1) * interval lies inside window 2, not at its end.
BandwidthTrace rounded_boundary_trace() {
  return BandwidthTrace(0.7, {5.0, 5.0, 0.0, 5.0});
}

TEST(BandwidthTrace, WindowEndAgreesWithWindowIndex) {
  const BandwidthTrace t = rounded_boundary_trace();
  ASSERT_EQ(t.window_index(3.0 * 0.7), 2u);  // the rounding this guards
  for (std::size_t idx = 0; idx + 1 < t.windows(); ++idx) {
    const double end = t.window_end_s(idx);
    EXPECT_EQ(t.window_index(end), idx + 1);
    EXPECT_EQ(t.window_index(std::nextafter(end, 0.0)), idx);
  }
  EXPECT_THROW((void)t.window_end_s(3), veritas::ContractViolation);
  // Where the product is already the boundary, it is the answer.
  EXPECT_EQ(BandwidthTrace(5.0, {1.0, 2.0}).window_end_s(0), 5.0);
  EXPECT_EQ(t.window_end_s(1), 2.0 * 0.7);
}

TEST(BandwidthTrace, IntegrateCrossesARoundedBoundary) {
  const BandwidthTrace t = rounded_boundary_trace();
  EXPECT_NEAR(t.integrate_mbit(0.0, 3.0), 5.0 * 1.4 + 5.0 * 0.9, 1e-9);
}

TEST(BandwidthTrace, TimeToTransferCrossesARoundedBoundary) {
  const BandwidthTrace t = rounded_boundary_trace();
  // 7 Mbit by 1.4 s, nothing until 2.1 s, then 5 Mbit at 5 Mbps.
  EXPECT_NEAR(t.time_to_transfer_s(12.0, 0.0), 3.1, 1e-9);
}

}  // namespace
}  // namespace veritas::trace
