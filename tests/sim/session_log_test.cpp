#include "sim/session_log.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "abr/abr_factory.hpp"
#include "sim/session.hpp"
#include "trace/trace_generator.hpp"
#include "util/csv.hpp"
#include "util/expects.hpp"
#include "video/ladder_presets.hpp"

namespace veritas::sim {
namespace {

SessionLog make_log() {
  video::VideoConfig cfg = video::default_video_config();
  cfg.duration_s = 60.0;
  const video::Video v(cfg);
  auto abr = abr::make_abr("mpc");
  const net::NetworkPath path(
      trace::markov_trace(trace::MarkovTraceConfig{}, 3), 0.08);
  return run_session(v, *abr, path).log;
}

TEST(SessionLog, CsvRoundTrip) {
  const SessionLog log = make_log();
  const SessionLog parsed = session_log_from_csv(to_csv(log));
  ASSERT_EQ(parsed.size(), log.size());
  EXPECT_DOUBLE_EQ(parsed.chunk_duration_s, log.chunk_duration_s);
  EXPECT_DOUBLE_EQ(parsed.rtt_s, log.rtt_s);
  for (std::size_t i = 0; i < log.size(); ++i) {
    const ChunkLog& a = log.chunks[i];
    const ChunkLog& b = parsed.chunks[i];
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.quality, b.quality);
    EXPECT_DOUBLE_EQ(a.size_bytes, b.size_bytes);
    EXPECT_DOUBLE_EQ(a.start_s, b.start_s);
    EXPECT_DOUBLE_EQ(a.end_s, b.end_s);
    EXPECT_DOUBLE_EQ(a.tcp_at_start.cwnd_segments,
                     b.tcp_at_start.cwnd_segments);
    EXPECT_DOUBLE_EQ(a.tcp_at_start.last_send_gap_s,
                     b.tcp_at_start.last_send_gap_s);
  }
}

TEST(SessionLog, ThroughputDefinition) {
  ChunkLog c;
  c.size_bytes = 1e6;
  c.start_s = 1.0;
  c.end_s = 2.0;
  EXPECT_DOUBLE_EQ(c.throughput_mbps(), 8.0);
  EXPECT_DOUBLE_EQ(c.download_time_s(), 1.0);
}

TEST(SessionLog, PrefixKeepsMetadata) {
  const SessionLog log = make_log();
  const SessionLog p = log.prefix(5);
  EXPECT_EQ(p.size(), 5u);
  EXPECT_DOUBLE_EQ(p.chunk_duration_s, log.chunk_duration_s);
  EXPECT_EQ(p.chunks[4].index, log.chunks[4].index);
}

TEST(SessionLog, PrefixBoundsChecked) {
  const SessionLog log = make_log();
  EXPECT_THROW(log.prefix(log.size() + 1), veritas::ContractViolation);
  EXPECT_EQ(log.prefix(log.size()).size(), log.size());
  EXPECT_TRUE(log.prefix(0).empty());
}

TEST(SessionLog, EmptyLogSerializesHeaderOnly) {
  SessionLog log;
  const std::string csv = to_csv(log);
  EXPECT_NE(csv.find("index,quality"), std::string::npos);
  EXPECT_TRUE(session_log_from_csv(csv).empty());
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Asserts every field of `a` and `b` is identical, bit for bit.
void expect_same_log(const SessionLog& a, const SessionLog& b) {
  EXPECT_EQ(bits(a.chunk_duration_s), bits(b.chunk_duration_s));
  EXPECT_EQ(bits(a.rtt_s), bits(b.rtt_s));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const ChunkLog& x = a.chunks[i];
    const ChunkLog& y = b.chunks[i];
    EXPECT_EQ(x.index, y.index);
    EXPECT_EQ(x.quality, y.quality);
    for (const auto field :
         {&ChunkLog::size_bytes, &ChunkLog::start_s, &ChunkLog::end_s,
          &ChunkLog::buffer_at_start_s}) {
      EXPECT_EQ(bits(x.*field), bits(y.*field)) << "chunk " << i;
    }
    for (const auto field :
         {&net::TcpState::cwnd_segments, &net::TcpState::ssthresh_segments,
          &net::TcpState::rto_s, &net::TcpState::min_rtt_s,
          &net::TcpState::rtt_s, &net::TcpState::last_send_gap_s}) {
      EXPECT_EQ(bits(x.tcp_at_start.*field), bits(y.tcp_at_start.*field))
          << "chunk " << i;
    }
  }
}

TEST(SessionLog, CsvRoundTripIsBitExactAcrossFamiliesAndAbrs) {
  const video::Video v(video::default_video_config());
  for (const auto family : {trace::TraceFamily::kFccLike,
                            trace::TraceFamily::kPoor,
                            trace::TraceFamily::kWideRange}) {
    const net::NetworkPath path(trace::make_traces(family, 1, 77)[0], 0.08);
    for (const char* name : {"mpc", "bba", "bola"}) {
      SCOPED_TRACE(std::string(trace::family_name(family)) + "/" + name);
      auto abr = abr::make_abr(name);
      const SessionLog log = run_session(v, *abr, path).log;
      ASSERT_FALSE(log.empty());
      expect_same_log(session_log_from_csv(to_csv(log)), log);
    }
  }
}

/// Splits a to_csv() line (numbers only, so nothing is quoted).
std::vector<std::string> split(const std::string& line) {
  std::vector<std::string> fields;
  std::istringstream in(line);
  for (std::string f; std::getline(in, f, ',');) fields.push_back(f);
  return fields;
}

TEST(SessionLog, AnyColumnOrderAndExtraColumnsParseTheSame) {
  const SessionLog log = make_log();
  std::istringstream in(to_csv(log));
  std::string reordered;
  bool header = true;
  for (std::string line; std::getline(in, line); header = false) {
    const std::vector<std::string> fields = split(line);
    reordered += header ? "note" : "\"a, \"\"quoted\"\" note\"";
    for (auto it = fields.rbegin(); it != fields.rend(); ++it) {
      reordered += "," + *it;
    }
    reordered += "\r\n";
  }
  expect_same_log(session_log_from_csv(reordered), log);
}

TEST(SessionLog, QuotedNumericCell) {
  std::string csv = to_csv(make_log().prefix(1));
  const std::size_t row = csv.find('\n') + 1;
  csv.replace(row, csv.find(',', row) - row, "\"0\"");
  EXPECT_EQ(session_log_from_csv(csv).chunks.at(0).index, 0u);
}

/// to_csv() of a three-chunk log with cell (row, column) replaced.
std::string with_cell(std::size_t row, std::size_t column,
                      const std::string& value) {
  std::istringstream in(to_csv(make_log().prefix(3)));
  std::string out;
  std::size_t r = 0;
  for (std::string line; std::getline(in, line); ++r) {
    std::vector<std::string> fields = split(line);
    if (r == row) fields.at(column) = value;
    for (std::size_t c = 0; c < fields.size(); ++c) {
      out += (c > 0 ? "," : "") + fields[c];
    }
    out += '\n';
  }
  return out;
}

/// The message session_log_from_csv() throws on `csv`.
std::string rejection(const std::string& csv) {
  try {
    session_log_from_csv(csv);
  } catch (const veritas::ContractViolation& e) {
    return e.what();
  }
  ADD_FAILURE() << "accepted:\n" << csv;
  return {};
}

// Columns of to_csv(): 0 index, 1 quality, 2 size_bytes, 3 start_s,
// 4 end_s, 5 cwnd, 6 ssthresh, 7 rto_s, 8 min_rtt_s, 9 rtt_s,
// 10 last_send_gap_s, 11 buffer_s, 12 chunk_duration_s, 13 session_rtt_s.
TEST(SessionLog, RejectsNonFiniteCells) {
  for (const char* cell : {"nan", "inf", "-inf"}) {
    EXPECT_NE(rejection(with_cell(2, 9, cell)).find("line 3, column 'rtt_s'"),
              std::string::npos);
  }
}

TEST(SessionLog, RejectsMissingColumnWithoutDataRows) {
  const std::string header = to_csv(SessionLog{});
  std::string no_end = header;
  no_end.erase(no_end.find(",end_s"), 6);
  EXPECT_NE(rejection(no_end).find("missing column 'end_s'"),
            std::string::npos);
  EXPECT_NE(rejection("").find("missing column 'index'"), std::string::npos);
}

TEST(SessionLog, RejectsDuplicateColumn) {
  EXPECT_NE(
      rejection(with_cell(0, 9, "end_s")).find("duplicate column 'end_s'"),
      std::string::npos);
}

TEST(SessionLog, RejectsNonPositiveSize) {
  for (const char* size : {"0", "-0", "-1500"}) {
    EXPECT_NE(rejection(with_cell(1, 2, size))
                  .find("line 2, column 'size_bytes': must be positive"),
              std::string::npos);
  }
}

TEST(SessionLog, RejectsNonPositiveCwnd) {
  for (const char* cwnd : {"0", "-3"}) {
    EXPECT_NE(rejection(with_cell(3, 5, cwnd))
                  .find("line 4, column 'cwnd': must be positive"),
              std::string::npos);
  }
}

TEST(SessionLog, RejectsEndNotAfterStart) {
  const SessionLog log = make_log();
  const std::string start = util::format_double(log.chunks[1].start_s);
  EXPECT_NE(rejection(with_cell(2, 4, start))
                .find("line 3, column 'end_s': must be after start_s"),
            std::string::npos);
  EXPECT_NE(rejection(with_cell(2, 4, "0")).find("line 3, column 'end_s'"),
            std::string::npos);
}

TEST(SessionLog, RejectsIndexOrQualityThatIsNotAWholeNumber) {
  for (const char* cell : {"-1", "0.5", "1e300"}) {
    EXPECT_NE(rejection(with_cell(1, 0, cell)).find("column 'index'"),
              std::string::npos);
    EXPECT_NE(rejection(with_cell(3, 1, cell)).find("column 'quality'"),
              std::string::npos);
  }
}

TEST(SessionLog, RejectsNonPositiveTcpTimesAndSessionConstants) {
  const std::pair<std::size_t, const char*> columns[] = {
      {6, "ssthresh"}, {7, "rto_s"},  {8, "min_rtt_s"},
      {9, "rtt_s"}, {12, "chunk_duration_s"}, {13, "session_rtt_s"}};
  for (const auto& [column, name] : columns) {
    for (const char* cell : {"0", "-0.08"}) {
      EXPECT_NE(rejection(with_cell(2, column, cell))
                    .find("line 3, column '" + std::string(name) +
                          "': must be positive"),
                std::string::npos)
          << name << " = " << cell;
    }
  }
}

TEST(SessionLog, RejectsNegativeStartGapOrBuffer) {
  const std::pair<std::size_t, const char*> columns[] = {
      {3, "start_s"}, {10, "last_send_gap_s"}, {11, "buffer_s"}};
  for (const auto& [column, name] : columns) {
    EXPECT_NE(rejection(with_cell(1, column, "-0.5"))
                  .find("line 2, column '" + std::string(name) +
                        "': must not be negative"),
              std::string::npos)
        << name;
  }
  // Zero is a valid gap and buffer (and the first chunk starts at 0).
  for (const std::size_t column : {10, 11}) {
    EXPECT_EQ(session_log_from_csv(with_cell(1, column, "0")).size(), 3u);
  }
}

TEST(SessionLog, RejectsStartNotAfterPreviousStart) {
  const std::string first = util::format_double(make_log().chunks[0].start_s);
  // Line 3 repeats the previous start; line 4 goes back before it.
  for (const std::size_t row : {2, 3}) {
    EXPECT_NE(rejection(with_cell(row, 3, first))
                  .find("line " + std::to_string(row + 1) +
                        ", column 'start_s': must be after the previous "
                        "row's start_s"),
              std::string::npos)
        << "row " << row;
  }
}

}  // namespace
}  // namespace veritas::sim
