// Trace persistence: a simple CSV format (time_s, mbps) for analysis
// tooling, plus export/import of the mahimahi packet-delivery-opportunity
// format the paper's testbed consumed (one millisecond timestamp per
// 1500-byte packet delivery).
#pragma once

#include <filesystem>
#include <string>

#include "trace/bandwidth_trace.hpp"

namespace veritas::trace {

/// Serializes as CSV with header "time_s,mbps"; one row per window start.
std::string to_csv(const BandwidthTrace& trace);

/// Parses the to_csv() format (columns in any order, extra ones ignored).
/// Throws ContractViolation, naming the line and the column where it can,
/// when a column is missing or repeated, a cell is not a finite number, a
/// rate is negative, the windows are not uniformly spaced at a positive
/// step, or there is no window.
BandwidthTrace from_csv(const std::string& text);

/// Writes to_csv() output to a file. Throws std::runtime_error on failure.
void write_csv_file(const BandwidthTrace& trace,
                    const std::filesystem::path& path);

/// Reads a CSV trace file. Throws std::runtime_error on IO failure.
BandwidthTrace read_csv_file(const std::filesystem::path& path);

/// Serializes in mahimahi format: one line per packet-delivery opportunity,
/// giving the millisecond at which a 1500-byte packet could be delivered.
std::string to_mahimahi(const BandwidthTrace& trace);

/// Parses mahimahi format back into a piecewise-constant trace by binning
/// delivery opportunities into `interval_s` windows.
BandwidthTrace from_mahimahi(const std::string& text, double interval_s);

}  // namespace veritas::trace
