// perfbench: the Veritas benchmark binary. Runs one workload and prints
// its metrics as a table on stderr and as one JSON line on stdout.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "math/simd_kernels.hpp"
#include "util/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// A "Vm...:" line of /proc/self/status in MiB, or -1 when unreadable.
double status_mb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1.0;
  char line[256];
  double kib = -1.0;
  const std::size_t n = std::strlen(field);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, field, n) == 0) {
      kib = std::atof(line + n);
      break;
    }
  }
  std::fclose(f);
  return kib < 0.0 ? -1.0 : kib / 1024.0;
}

}  // namespace

double peak_rss_mb() {
  const double hwm = status_mb("VmHWM:");
  if (hwm >= 0.0) return hwm;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void reset_peak_rss(Report& report) {
  report.context("harness_peak_rss_mb", peak_rss_mb());
  report.context("inputs_rss_mb", status_mb("VmRSS:"));
  // Writing 5 to clear_refs resets VmHWM to the current resident set.
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  bool reset = f != nullptr && std::fputs("5", f) >= 0;
  if (f != nullptr && std::fclose(f) != 0) reset = false;
  report.context("peak_rss_from", reset ? "inputs made" : "process start");
}

namespace {

std::size_t cpus_allowed() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload cf_abr_bba|cf_buffer_mpc|service_fleet "
               "--seed N --seconds S --trace 0|1\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0.0) return usage(argv[0]);
  options.nproc = cpus_allowed();

  try {
    Report report = [&] {
      if (options.workload == "cf_abr_bba" ||
          options.workload == "cf_buffer_mpc") {
        return run_counterfactual(options);
      }
      if (options.workload == "service_fleet") {
        return run_service_fleet(options);
      }
      std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
      std::exit(usage(argv[0]));
    }();
    report.context("kernels", veritas::math::simd_kernels::backend_name());
    report.context("tracing_compiled",
                   veritas::util::Tracer::kCompiledIn ? "on" : "off");
#if defined(VERITAS_FAILPOINTS_DISABLED)
    report.context("failpoints_compiled", "off");
#else
    report.context("failpoints_compiled", "on");
#endif
    report.context("nproc", static_cast<double>(options.nproc));
    report.context("seed", std::to_string(options.seed));
    report.context("seconds", options.seconds);
    report.print_table();
    std::printf("%s\n", report.json().c_str());
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
