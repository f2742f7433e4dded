#include "trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "trace/trace_generator.hpp"
#include "util/expects.hpp"

namespace veritas::trace {
namespace {

TEST(TraceCsv, RoundTrip) {
  const BandwidthTrace t(5.0, {1.0, 2.5, 0.5});
  const BandwidthTrace r = from_csv(to_csv(t));
  EXPECT_DOUBLE_EQ(r.interval_s(), 5.0);
  EXPECT_EQ(r.windows(), 3u);
  EXPECT_DOUBLE_EQ(t.mean_abs_diff_mbps(r), 0.0);
}

TEST(TraceCsv, SingleWindow) {
  const BandwidthTrace t(2.0, {3.0});
  const BandwidthTrace r = from_csv(to_csv(t));
  EXPECT_EQ(r.windows(), 1u);
  EXPECT_DOUBLE_EQ(r.at(0.0), 3.0);
}

TEST(TraceCsv, GeneratedTraceRoundTrip) {
  MarkovTraceConfig cfg;
  const BandwidthTrace t = markov_trace(cfg, 21);
  const BandwidthTrace r = from_csv(to_csv(t));
  EXPECT_DOUBLE_EQ(t.mean_abs_diff_mbps(r), 0.0);
}

TEST(TraceCsv, FileRoundTrip) {
  const auto path =
      std::filesystem::temp_directory_path() / "veritas_trace_io_test.csv";
  const BandwidthTrace t(1.0, {4.0, 5.0});
  write_csv_file(t, path);
  const BandwidthTrace r = read_csv_file(path);
  EXPECT_DOUBLE_EQ(t.mean_abs_diff_mbps(r), 0.0);
  std::filesystem::remove(path);
}

TEST(TraceCsv, ReadMissingFileThrows) {
  EXPECT_THROW(read_csv_file("/nonexistent/veritas.csv"), std::runtime_error);
}

TEST(TraceCsv, RoundTripIsBitExactAcrossFamilies) {
  for (const auto family : {TraceFamily::kFccLike, TraceFamily::kPoor,
                            TraceFamily::kWideRange}) {
    const BandwidthTrace t = make_traces(family, 1, 77)[0];
    const BandwidthTrace r = from_csv(to_csv(t));
    EXPECT_EQ(r.interval_s(), t.interval_s()) << family_name(family);
    EXPECT_TRUE(std::ranges::equal(r.values_mbps(), t.values_mbps()))
        << family_name(family);
  }
}

TEST(TraceCsv, AnyColumnOrderAndExtraColumns) {
  const BandwidthTrace r =
      from_csv("mbps,\"note, quoted\",time_s\r\n1.5,x,0\r\n\"2.5\",,2\r\n");
  EXPECT_EQ(r.interval_s(), 2.0);
  EXPECT_TRUE(
      std::ranges::equal(r.values_mbps(), std::vector<double>{1.5, 2.5}));
}

/// The message from_csv() throws on `csv`.
std::string rejection(const std::string& csv) {
  try {
    from_csv(csv);
  } catch (const veritas::ContractViolation& e) {
    return e.what();
  }
  ADD_FAILURE() << "accepted:\n" << csv;
  return {};
}

TEST(TraceCsv, RejectsMalformedInput) {
  const std::vector<std::pair<std::string, std::string>> cases{
      {"time_s,mbps\n0,1\n1,nan\n", "line 3, column 'mbps'"},
      {"time_s,mbps\n0,1\n1,inf\n", "line 3, column 'mbps'"},
      {"time_s,mbps\n0,1\n1,-1\n", "line 3, column 'mbps': must be >= 0"},
      {"time_s\n", "missing column 'mbps'"},
      {"time_s,mbps,mbps\n0,1,2\n", "duplicate column 'mbps'"},
      {"time_s,mbps\n", "Precondition"},
      {"time_s,mbps\n1,1\n1,1\n", "line 3, column 'time_s': must increase"},
      {"time_s,mbps\n0,1\n1,1\n3,1\n", "line 4, column 'time_s'"},
      {"time_s,mbps\n-1e308,1\n1e308,1\n", "line 3, column 'time_s'"},
  };
  for (const auto& [csv, expected] : cases) {
    EXPECT_NE(rejection(csv).find(expected), std::string::npos) << csv;
  }
}

TEST(Mahimahi, ConstantRateRoundTrip) {
  // 12 Mbps = 1 x 1500B packet per ms exactly.
  const BandwidthTrace t = BandwidthTrace::constant(12.0, 10.0, 1.0);
  const std::string text = to_mahimahi(t);
  const BandwidthTrace r = from_mahimahi(text, 1.0);
  EXPECT_NEAR(r.average_mbps(0.0, 10.0), 12.0, 0.1);
}

TEST(Mahimahi, LowRateAccumulatesCredit) {
  // 0.6 Mbps = one packet every 20 ms; binning at 1 s must see ~50 pkts.
  const BandwidthTrace t = BandwidthTrace::constant(0.6, 5.0, 1.0);
  const BandwidthTrace r = from_mahimahi(to_mahimahi(t), 1.0);
  EXPECT_NEAR(r.average_mbps(0.0, 5.0), 0.6, 0.05);
}

TEST(Mahimahi, VaryingRatePreservesShape) {
  const BandwidthTrace t(1.0, {2.0, 8.0, 2.0});
  const BandwidthTrace r = from_mahimahi(to_mahimahi(t), 1.0);
  EXPECT_NEAR(r.at(0.5), 2.0, 0.3);
  EXPECT_NEAR(r.at(1.5), 8.0, 0.3);
  EXPECT_NEAR(r.at(2.5), 2.0, 0.3);
}

TEST(Mahimahi, TimestampsAreSorted) {
  const BandwidthTrace t(1.0, {1.0, 6.0});
  const std::string text = to_mahimahi(t);
  long long prev = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t eol = text.find('\n', pos);
    const long long ms = std::stoll(text.substr(pos, eol - pos));
    EXPECT_GE(ms, prev);
    prev = ms;
    pos = eol + 1;
  }
}

}  // namespace
}  // namespace veritas::trace
