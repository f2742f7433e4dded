#include "trace/trace_generator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

namespace veritas::trace {
namespace {

TEST(MarkovTrace, DeterministicInSeed) {
  MarkovTraceConfig cfg;
  const BandwidthTrace a = markov_trace(cfg, 5);
  const BandwidthTrace b = markov_trace(cfg, 5);
  EXPECT_DOUBLE_EQ(a.mean_abs_diff_mbps(b), 0.0);
}

TEST(MarkovTrace, DifferentSeedsDiffer) {
  MarkovTraceConfig cfg;
  const BandwidthTrace a = markov_trace(cfg, 1);
  const BandwidthTrace b = markov_trace(cfg, 2);
  EXPECT_GT(a.mean_abs_diff_mbps(b), 0.0);
}

TEST(MarkovTrace, RespectsBounds) {
  MarkovTraceConfig cfg;
  cfg.min_mbps = 1.0;
  cfg.max_mbps = 2.5;
  const BandwidthTrace t = markov_trace(cfg, 3);
  for (const double v : t.values_mbps()) {
    EXPECT_GE(v, cfg.min_mbps);
    EXPECT_LE(v, cfg.max_mbps);
  }
}

TEST(MarkovTrace, ValuesOnGrid) {
  MarkovTraceConfig cfg;
  cfg.grid_mbps = 0.5;
  const BandwidthTrace t = markov_trace(cfg, 4);
  for (const double v : t.values_mbps()) {
    const double steps = v / cfg.grid_mbps;
    EXPECT_NEAR(steps, std::round(steps), 1e-9);
  }
}

TEST(MarkovTrace, CorrectWindowCount) {
  MarkovTraceConfig cfg;
  cfg.duration_s = 600.0;
  cfg.interval_s = 5.0;
  EXPECT_EQ(markov_trace(cfg, 1).windows(), 120u);
}

TEST(RegimeTrace, RespectsAbsoluteBounds) {
  RegimeTraceConfig cfg;
  cfg.absolute_min_mbps = 2.0;
  cfg.absolute_max_mbps = 8.0;
  const BandwidthTrace t = regime_trace(cfg, 7);
  for (const double v : t.values_mbps()) {
    EXPECT_GE(v, 2.0);
    EXPECT_LE(v, 8.0);
  }
}

TEST(RegimeTrace, VisitsBothRegimes) {
  RegimeTraceConfig cfg;
  cfg.low_mbps = 2.5;
  cfg.high_mbps = 6.5;
  const BandwidthTrace t = regime_trace(cfg, 11);
  bool saw_low = false, saw_high = false;
  for (const double v : t.values_mbps()) {
    saw_low |= v < 4.0;
    saw_high |= v > 5.0;
  }
  EXPECT_TRUE(saw_low);
  EXPECT_TRUE(saw_high);
}

TEST(RegimeTrace, HasPlateaus) {
  RegimeTraceConfig cfg;
  cfg.mean_dwell_s = 60.0;
  const BandwidthTrace t = regime_trace(cfg, 13);
  // With 60 s dwell and 5 s windows, most adjacent windows should be
  // within one jitter step of each other.
  std::size_t small_moves = 0;
  const auto values = t.values_mbps();
  for (std::size_t i = 1; i < values.size(); ++i) {
    if (std::abs(values[i] - values[i - 1]) <= cfg.grid_mbps + 1e-12) {
      ++small_moves;
    }
  }
  EXPECT_GT(static_cast<double>(small_moves) /
                static_cast<double>(values.size() - 1),
            0.8);
}

TEST(SquareWave, AlternatesAtPeriod) {
  const BandwidthTrace t = square_wave_trace(1.0, 5.0, 10.0, 40.0, 1.0);
  EXPECT_DOUBLE_EQ(t.at(0.5), 5.0);   // first half-period high
  EXPECT_DOUBLE_EQ(t.at(10.5), 1.0);  // second half-period low
  EXPECT_DOUBLE_EQ(t.at(20.5), 5.0);
  EXPECT_DOUBLE_EQ(t.at(30.5), 1.0);
}

TEST(MakeTraces, CountAndDeterminism) {
  const auto a = make_traces(TraceFamily::kFccLike, 5, 99);
  const auto b = make_traces(TraceFamily::kFccLike, 5, 99);
  ASSERT_EQ(a.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(a[i].mean_abs_diff_mbps(b[i]), 0.0);
  }
}

TEST(MakeTraces, TracesWithinFamilyDiffer) {
  const auto traces = make_traces(TraceFamily::kFccLike, 3, 123);
  EXPECT_GT(traces[0].mean_abs_diff_mbps(traces[1]), 0.0);
  EXPECT_GT(traces[1].mean_abs_diff_mbps(traces[2]), 0.0);
}

struct FamilyRange {
  TraceFamily family;
  double min, max;
};

// Names each case by its family. Without this gtest prints the raw bytes,
// padding included, so the case names (and the ctest names derived from
// them) changed from one process to the next.
void PrintTo(const FamilyRange& r, std::ostream* os) {
  *os << family_name(r.family);
}

class FamilyBounds : public ::testing::TestWithParam<FamilyRange> {};

TEST_P(FamilyBounds, AllValuesInRange) {
  const auto param = GetParam();
  const auto traces = make_traces(param.family, 4, 7);
  for (const auto& t : traces) {
    for (const double v : t.values_mbps()) {
      EXPECT_GE(v, param.min) << family_name(param.family);
      EXPECT_LE(v, param.max) << family_name(param.family);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, FamilyBounds,
    ::testing::Values(FamilyRange{TraceFamily::kFccLike, 2.0, 8.0},
                      FamilyRange{TraceFamily::kPoor, 0.0, 0.3},
                      FamilyRange{TraceFamily::kGood, 9.0, 10.0},
                      FamilyRange{TraceFamily::kWideRange, 0.5, 10.0},
                      FamilyRange{TraceFamily::kSquareWave, 1.0, 6.0},
                      FamilyRange{TraceFamily::kConstant4, 4.0, 4.0}));

TEST(FamilyName, AllNamed) {
  EXPECT_STREQ(family_name(TraceFamily::kFccLike), "fcc_like");
  EXPECT_STREQ(family_name(TraceFamily::kPoor), "poor");
  EXPECT_STREQ(family_name(TraceFamily::kGood), "good");
  EXPECT_STREQ(family_name(TraceFamily::kWideRange), "wide_range");
  EXPECT_STREQ(family_name(TraceFamily::kSquareWave), "square_wave");
  EXPECT_STREQ(family_name(TraceFamily::kConstant4), "constant_4");
}

}  // namespace
}  // namespace veritas::trace
