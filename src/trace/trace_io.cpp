#include "trace/trace_io.hpp"

#include <array>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "util/csv.hpp"
#include "util/expects.hpp"

namespace veritas::trace {

namespace {
constexpr double kMahimahiPacketBytes = 1500.0;
constexpr double kMahimahiPacketMbit = kMahimahiPacketBytes * 8.0 / 1e6;

/// Trace CSV columns, in the order to_csv() writes them.
enum Column : std::size_t { kTime, kMbps };
constexpr std::array<std::string_view, 2> kColumnNames{"time_s", "mbps"};
}  // namespace

std::string to_csv(const BandwidthTrace& trace) {
  std::ostringstream out;
  util::CsvWriter writer(out);
  writer.header({kColumnNames.begin(), kColumnNames.end()});
  const auto values = trace.values_mbps();
  for (std::size_t i = 0; i < values.size(); ++i) {
    writer.row(std::vector<double>{static_cast<double>(i) * trace.interval_s(),
                                   values[i]});
  }
  return out.str();
}

BandwidthTrace from_csv(const std::string& text) {
  util::NumericCsvReader row(text, kColumnNames);
  std::vector<double> values;
  double interval = 1.0;
  double prev_time = 0.0;
  while (row.next()) {
    const double t = row[kTime];
    if (values.size() == 1) {
      interval = t - prev_time;
      if (!(interval > 0.0 && std::isfinite(interval))) {
        row.reject(kTime, "must increase by a finite step");
      }
    } else if (values.size() > 1 &&
               !(std::abs((t - prev_time) - interval) < 1e-6)) {
      row.reject(kTime, "windows must be uniformly spaced");
    }
    if (!(row[kMbps] >= 0.0)) row.reject(kMbps, "must be >= 0");
    prev_time = t;
    values.push_back(row[kMbps]);
  }
  VERITAS_EXPECTS(!values.empty());
  return BandwidthTrace(interval, std::move(values));
}

void write_csv_file(const BandwidthTrace& trace,
                    const std::filesystem::path& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace: " + path.string());
  out << to_csv(trace);
}

BandwidthTrace read_csv_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read trace: " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return from_csv(buffer.str());
}

std::string to_mahimahi(const BandwidthTrace& trace) {
  // Accumulate fractional packets so low rates still emit opportunities.
  std::ostringstream out;
  double credit_packets = 0.0;
  const auto total_ms =
      static_cast<long long>(std::llround(trace.duration_s() * 1000.0));
  for (long long ms = 1; ms <= total_ms; ++ms) {
    const double t = (static_cast<double>(ms) - 0.5) / 1000.0;
    credit_packets += trace.at(t) / 1000.0 / kMahimahiPacketMbit;
    while (credit_packets >= 1.0) {
      out << ms << '\n';
      credit_packets -= 1.0;
    }
  }
  return out.str();
}

BandwidthTrace from_mahimahi(const std::string& text, double interval_s) {
  VERITAS_EXPECTS(interval_s > 0.0);
  std::istringstream in(text);
  std::vector<std::size_t> packets_per_window;
  long long ms = 0;
  long long last_ms = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ms = std::stoll(line);
    VERITAS_EXPECTS(ms >= last_ms);
    last_ms = ms;
    const auto window =
        static_cast<std::size_t>(static_cast<double>(ms) / 1000.0 / interval_s);
    if (window >= packets_per_window.size()) {
      packets_per_window.resize(window + 1, 0);
    }
    ++packets_per_window[window];
  }
  VERITAS_EXPECTS(!packets_per_window.empty());
  std::vector<double> values;
  values.reserve(packets_per_window.size());
  for (const std::size_t count : packets_per_window) {
    values.push_back(static_cast<double>(count) * kMahimahiPacketMbit /
                     interval_s);
  }
  return BandwidthTrace(interval_s, std::move(values));
}

}  // namespace veritas::trace
