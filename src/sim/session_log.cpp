#include "sim/session_log.hpp"

#include <array>
#include <cmath>
#include <sstream>
#include <string_view>

#include "util/csv.hpp"
#include "util/expects.hpp"

namespace veritas::sim {

SessionLog SessionLog::prefix(std::size_t n) const {
  VERITAS_EXPECTS(n <= chunks.size());
  SessionLog out;
  out.chunk_duration_s = chunk_duration_s;
  out.rtt_s = rtt_s;
  out.chunks.assign(chunks.begin(),
                    chunks.begin() + static_cast<std::ptrdiff_t>(n));
  return out;
}

namespace {

/// Session-log CSV columns, in the order to_csv() writes them.
enum Column : std::size_t {
  kIndex, kQuality, kSize, kStart, kEnd, kCwnd, kSsthresh, kRto, kMinRtt,
  kRtt, kLastSendGap, kBuffer, kChunkDuration, kSessionRtt, kColumnCount
};

constexpr std::array<std::string_view, kColumnCount> kColumnNames{
    "index",  "quality",  "size_bytes", "start_s",   "end_s",
    "cwnd",   "ssthresh", "rto_s",      "min_rtt_s", "rtt_s",
    "last_send_gap_s",    "buffer_s",   "chunk_duration_s",
    "session_rtt_s"};

/// Every whole number up to 2^53 is exact in a double.
constexpr double kMaxWholeNumber = 9007199254740992.0;

/// A chunk index or ladder rung: a whole number >= 0 that fits size_t.
std::size_t whole_number(const util::NumericCsvReader& row, Column k) {
  const double v = row[k];
  if (!(v >= 0.0 && v <= kMaxWholeNumber && v == std::floor(v))) {
    row.reject(k, "not a whole number >= 0");
  }
  return static_cast<std::size_t>(v);
}

/// A window of no segments never opens (the estimator's round count
/// would not end), and the TCP model needs positive round-trip times.
constexpr Column kPositive[] = {kSize, kCwnd, kSsthresh, kRto, kMinRtt,
                                kRtt, kChunkDuration, kSessionRtt};
constexpr Column kNonNegative[] = {kStart, kLastSendGap, kBuffer};

}  // namespace

std::string to_csv(const SessionLog& log) {
  std::ostringstream out;
  util::CsvWriter writer(out);
  writer.header({kColumnNames.begin(), kColumnNames.end()});
  for (const ChunkLog& c : log.chunks) {
    writer.row(std::vector<double>{
        static_cast<double>(c.index), static_cast<double>(c.quality),
        c.size_bytes, c.start_s, c.end_s, c.tcp_at_start.cwnd_segments,
        c.tcp_at_start.ssthresh_segments, c.tcp_at_start.rto_s,
        c.tcp_at_start.min_rtt_s, c.tcp_at_start.rtt_s,
        c.tcp_at_start.last_send_gap_s, c.buffer_at_start_s,
        log.chunk_duration_s, log.rtt_s});
  }
  return out.str();
}

SessionLog session_log_from_csv(const std::string& text) {
  util::NumericCsvReader row(text, kColumnNames);
  SessionLog log;
  while (row.next()) {
    for (const Column k : kPositive) {
      if (!(row[k] > 0.0)) row.reject(k, "must be positive");
    }
    for (const Column k : kNonNegative) {
      if (!(row[k] >= 0.0)) row.reject(k, "must not be negative");
    }
    ChunkLog c;
    c.index = whole_number(row, kIndex);
    c.quality = whole_number(row, kQuality);
    c.size_bytes = row[kSize];
    c.start_s = row[kStart];
    c.end_s = row[kEnd];
    if (!log.chunks.empty() && !(c.start_s > log.chunks.back().start_s)) {
      row.reject(kStart, "must be after the previous row's start_s");
    }
    if (!(c.end_s > c.start_s)) row.reject(kEnd, "must be after start_s");
    c.tcp_at_start.cwnd_segments = row[kCwnd];
    c.tcp_at_start.ssthresh_segments = row[kSsthresh];
    c.tcp_at_start.rto_s = row[kRto];
    c.tcp_at_start.min_rtt_s = row[kMinRtt];
    c.tcp_at_start.rtt_s = row[kRtt];
    c.tcp_at_start.last_send_gap_s = row[kLastSendGap];
    c.buffer_at_start_s = row[kBuffer];
    log.chunk_duration_s = row[kChunkDuration];
    log.rtt_s = row[kSessionRtt];
    log.chunks.push_back(c);
  }
  return log;
}

}  // namespace veritas::sim
