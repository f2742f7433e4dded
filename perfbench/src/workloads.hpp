// The benchmark's workloads. Each one builds its seeded inputs, sets up
// the program (timed as set-up), measures for the requested seconds,
// runs its correctness gates and fidelity pass, and fills a Report.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;   ///< per-layer run instead of the end-to-end one
  std::size_t nproc = 1;  ///< CPUs this process may run on
};

/// Set-ups timed per run; set-up time is their median.
inline constexpr int kSetupRepeats = 5;

/// Logs in the fixed fidelity panel (see inputs.hpp kPanelSeed).
inline constexpr std::size_t kPanelSize = 48;

/// cf_abr_bba and cf_buffer_mpc: closed-loop clients send session logs
/// as CSV text to local CounterfactualEngines.
Report run_counterfactual(const RunOptions& options);

/// service_fleet: an open-loop fleet of abduction and interventional
/// queries through VeritasService.
Report run_service_fleet(const RunOptions& options);

/// Peak resident set of this process since the last reset_peak_rss, MiB.
double peak_rss_mb();

/// Called once the harness has made its inputs: records the harness's
/// own peak and the resident set the inputs hold as context, then resets
/// the peak, so that peak_rss_mb counts the program's set-up and timed
/// loop on top of the inputs. Where the reset is refused the peak counts
/// from process start, and the report says so.
void reset_peak_rss(Report& report);

}  // namespace perfbench
