// File-based command-line workflow around the library, so Veritas can be
// driven without writing C++:
//
//   veritas_cli generate-trace --family fcc_like --seed 7 --out gt.csv
//   veritas_cli simulate  --trace gt.csv --abr mpc --buffer 5 --out log.csv
//   veritas_cli infer     --log log.csv --samples 5 --out-prefix inferred
//   veritas_cli replay    --trace inferred_map.csv --abr bba --buffer 5
//   veritas_cli predict   --log log.csv --size 1000000
//   veritas_cli serve     --logs log.csv,log2.csv --repeat 2 --threads 4
//
// The dispatcher is a library function (testable without spawning a
// process); tools/veritas_cli.cpp is a thin main().
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <span>
#include <string>
#include <vector>

namespace veritas::cli {

/// Parsed command line: a subcommand plus --key value options.
struct CommandLine {
  std::string command;
  std::map<std::string, std::string> options;

  /// Option value or `fallback` when absent.
  std::string get(const std::string& key, const std::string& fallback) const;

  /// Numeric option; throws ContractViolation on malformed numbers.
  double number(const std::string& key, double fallback) const;

  /// Non-negative integer option (counts, sizes, seeds); throws
  /// ContractViolation unless the whole value is a decimal integer that
  /// fits in 64 bits — so "-1", "nan", "2.5" and "1e3" are rejected.
  std::uint64_t count(const std::string& key, std::uint64_t fallback) const;

  /// Required option; throws ContractViolation when missing.
  std::string require(const std::string& key) const;
};

/// Parses ["cmd", "--k", "v", ...]. Flags must be --key value pairs.
/// Throws ContractViolation on malformed input.
CommandLine parse_command_line(std::span<const std::string> args);

/// Runs one CLI invocation. Returns the process exit code; writes
/// human-readable output to `out` and errors to `err`. An option the
/// command does not read is an error (exit 1) before any work is done.
int run_cli(std::span<const std::string> args, std::ostream& out,
            std::ostream& err);

/// Multi-line usage text: every command with exactly the options it
/// accepts.
std::string usage();

}  // namespace veritas::cli
