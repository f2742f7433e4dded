// Session logs: what a deployed system records (paper §3.3).
//
// For each chunk: size, download start/end time, and the TCP state at the
// start of the download (cwnd, ssthresh, rto, ...). Notably the log does
// NOT contain the ground-truth bandwidth — recovering it is Veritas's
// abduction task. Logs serialize to CSV so they can be inspected and
// replayed offline.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "net/tcp_state.hpp"

namespace veritas::sim {

/// Per-chunk observation (the shaded variables of paper Fig. 3).
struct ChunkLog {
  std::size_t index = 0;        ///< chunk number n (0-based)
  std::size_t quality = 0;      ///< ladder rung chosen by the deployed ABR
  double size_bytes = 0.0;      ///< S_n
  double start_s = 0.0;         ///< s_n
  double end_s = 0.0;           ///< e_n
  net::TcpState tcp_at_start;   ///< W_sn
  double buffer_at_start_s = 0.0;  ///< B_sn (logged but not required; §A.2)

  double download_time_s() const noexcept { return end_s - start_s; }
  /// Observed throughput Y_n = S_n / D_n, Mbps.
  double throughput_mbps() const noexcept {
    return size_bytes * 8.0 / 1e6 / (end_s - start_s);
  }
};

/// A full session's observations plus the session-level constants that a
/// real log would carry.
struct SessionLog {
  std::vector<ChunkLog> chunks;
  double chunk_duration_s = 2.0;
  double rtt_s = 0.08;

  bool empty() const noexcept { return chunks.empty(); }
  std::size_t size() const noexcept { return chunks.size(); }

  /// Prefix of the first `n` chunks (for interventional queries that see
  /// only the session so far).
  SessionLog prefix(std::size_t n) const;
};

/// CSV serialization (one row per chunk).
std::string to_csv(const SessionLog& log);

/// Parses to_csv() output; the columns may come in any order and extra
/// columns are ignored. Throws ContractViolation naming the line and the
/// column when a column is missing or repeated, a cell is not a finite
/// number, index or quality is not a whole number >= 0, start_s < 0 or
/// not after the previous row's start_s, end_s <= start_s, size_bytes,
/// cwnd, ssthresh, rto_s, min_rtt_s, rtt_s, chunk_duration_s or
/// session_rtt_s <= 0, or last_send_gap_s or buffer_s < 0.
SessionLog session_log_from_csv(const std::string& text);

}  // namespace veritas::sim
