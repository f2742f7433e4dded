#include "cli/commands.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/expects.hpp"
#include "util/trace.hpp"

namespace veritas::cli {
namespace {

namespace fs = std::filesystem;

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("veritas_cli_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  int run(std::initializer_list<std::string> args) {
    out_.str("");
    err_.str("");
    const std::vector<std::string> argv(args);
    return run_cli(argv, out_, err_);
  }

  std::string path(const std::string& name) { return (dir_ / name).string(); }

  /// Runs the command in a child process, killed once `bound` has
  /// passed, so a hang fails the test instead of stalling the suite.
  /// Returns the exit code, or -1 when the bound killed it.
  static int run_bounded(const std::vector<std::string>& argv,
                         std::chrono::seconds bound) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      std::ostringstream out, err;
      std::_Exit(run_cli(argv, out, err));
    }
    if (pid < 0) return -1;
    const auto give_up = std::chrono::steady_clock::now() + bound;
    int status = 0;
    while (::waitpid(pid, &status, WNOHANG) == 0) {
      if (std::chrono::steady_clock::now() >= give_up) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        return -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  static std::string slurp(const std::string& file) {
    std::ifstream in(file);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  fs::path dir_;
  std::ostringstream out_, err_;
};

TEST_F(CliTest, ParseCommandLine) {
  const std::vector<std::string> args{"simulate", "--abr", "bba", "--buffer",
                                      "30"};
  const CommandLine cmd = parse_command_line(args);
  EXPECT_EQ(cmd.command, "simulate");
  EXPECT_EQ(cmd.get("--abr", "mpc"), "bba");
  EXPECT_DOUBLE_EQ(cmd.number("--buffer", 5.0), 30.0);
  EXPECT_EQ(cmd.get("--missing", "fallback"), "fallback");
  EXPECT_THROW(cmd.require("--missing"), ContractViolation);
}

TEST_F(CliTest, ParseRejectsMalformedOptions) {
  const std::vector<std::string> bad_flag{"simulate", "abr", "bba"};
  EXPECT_THROW(parse_command_line(bad_flag), ContractViolation);
  const std::vector<std::string> missing_value{"simulate", "--abr"};
  EXPECT_THROW(parse_command_line(missing_value), ContractViolation);
}

TEST_F(CliTest, NumberOptionValidation) {
  const std::vector<std::string> args{"x", "--n", "abc"};
  const CommandLine cmd = parse_command_line(args);
  EXPECT_THROW(cmd.number("--n", 0.0), ContractViolation);
}

TEST_F(CliTest, CountOptionValidation) {
  const std::vector<std::string> args{"x", "--n", "42", "--big",
                                      "18446744073709551615"};
  const CommandLine cmd = parse_command_line(args);
  EXPECT_EQ(cmd.count("--n", 0), 42u);
  EXPECT_EQ(cmd.count("--big", 0), 18446744073709551615ull);
  EXPECT_EQ(cmd.count("--missing", 7), 7u);
  for (const char* bad :
       {"-1", "nan", "2.5", "1e3", "", " 3", "3 ", "+3", "abc",
        "18446744073709551616"}) {
    const std::vector<std::string> bad_args{"x", "--n", bad};
    EXPECT_THROW(parse_command_line(bad_args).count("--n", 0),
                 ContractViolation)
        << "'" << bad << "'";
  }
}

TEST_F(CliTest, IntegerFlagsRejectNonIntegers) {
  ASSERT_EQ(run({"generate-trace", "--out", path("gt.csv")}), 0);
  ASSERT_EQ(run({"simulate", "--trace", path("gt.csv"), "--out",
                 path("log.csv")}),
            0);
  // Each value exits non-zero with a message naming the flag, before any
  // work is done.
  for (const char* bad : {"-1", "nan", "2.5"}) {
    for (const char* flag : {"--samples", "--seed"}) {
      EXPECT_EQ(run({"infer", "--log", path("log.csv"), "--out-prefix",
                     path("inf"), flag, bad}),
                1)
          << flag << " " << bad;
      EXPECT_NE(err_.str().find(flag), std::string::npos) << err_.str();
      EXPECT_NE(err_.str().find("not a non-negative integer"),
                std::string::npos)
          << err_.str();
    }
    EXPECT_EQ(run({"serve", "--logs", path("log.csv"), "--repeat", bad}), 1)
        << bad;
    EXPECT_NE(err_.str().find("--repeat"), std::string::npos) << err_.str();
    EXPECT_EQ(run({"generate-trace", "--out", path("gt2.csv"), "--seed",
                   bad}),
              1)
        << bad;
    EXPECT_FALSE(fs::exists(path("gt2.csv")));
  }
}

TEST_F(CliTest, HelpAndUnknownCommand) {
  EXPECT_EQ(run({"help"}), 0);
  EXPECT_NE(out_.str().find("generate-trace"), std::string::npos);
  EXPECT_EQ(run({"frobnicate"}), 2);
  EXPECT_NE(err_.str().find("unknown command"), std::string::npos);
}

TEST_F(CliTest, UsageNamesTheInstalledBinary) {
  EXPECT_EQ(run({"help"}), 0);
  const std::string text = out_.str();
  EXPECT_EQ(text.substr(0, text.find('\n')),
            "veritas <command> [--option value ...]");
}

TEST_F(CliTest, MissingRequiredOptionIsError) {
  EXPECT_EQ(run({"generate-trace"}), 1);
  EXPECT_NE(err_.str().find("--out"), std::string::npos);
}

TEST_F(CliTest, GenerateTraceWritesCsv) {
  EXPECT_EQ(run({"generate-trace", "--out", path("gt.csv"), "--seed", "3"}),
            0);
  EXPECT_TRUE(fs::exists(path("gt.csv")));
  EXPECT_NE(out_.str().find("windows"), std::string::npos);
}

TEST_F(CliTest, GenerateTraceRejectsUnknownFamily) {
  EXPECT_EQ(run({"generate-trace", "--out", path("gt.csv"), "--family",
                 "nope"}),
            1);
}

TEST_F(CliTest, FullPipelineEndToEnd) {
  ASSERT_EQ(run({"generate-trace", "--out", path("gt.csv"), "--seed", "9"}),
            0);
  ASSERT_EQ(run({"simulate", "--trace", path("gt.csv"), "--out",
                 path("log.csv")}),
            0);
  EXPECT_NE(out_.str().find("metrics:"), std::string::npos);

  ASSERT_EQ(run({"infer", "--log", path("log.csv"), "--out-prefix",
                 path("inf"), "--samples", "3"}),
            0);
  EXPECT_TRUE(fs::exists(path("inf_map.csv")));
  EXPECT_TRUE(fs::exists(path("inf_baseline.csv")));
  EXPECT_TRUE(fs::exists(path("inf_sample2.csv")));

  ASSERT_EQ(run({"replay", "--trace", path("inf_map.csv"), "--abr", "bba"}),
            0);
  EXPECT_NE(out_.str().find("rebuffer_pct"), std::string::npos);

  ASSERT_EQ(run({"predict", "--log", path("log.csv"), "--size", "1000000"}),
            0);
  EXPECT_NE(out_.str().find("p50="), std::string::npos);
}

TEST_F(CliTest, SimulateHonorsAbrAndLadder) {
  ASSERT_EQ(run({"generate-trace", "--out", path("gt.csv")}), 0);
  ASSERT_EQ(run({"simulate", "--trace", path("gt.csv"), "--out",
                 path("log.csv"), "--abr", "fixed:0", "--ladder", "high"}),
            0);
  // fixed:0 on the high ladder -> avg bitrate equals its floor (2.5).
  EXPECT_NE(out_.str().find("avg_bitrate_mbps=2.5"), std::string::npos);
}

TEST_F(CliTest, SimulateCrossesAZeroRateWindowAtARoundedBoundary) {
  // 0.7 s windows: the zero-rate window 2 ends where 3 * 0.7 / 0.7
  // rounds to 2.9999999999999996, still window 2 by t / interval.
  std::ofstream(path("gt.csv")) << "time_s,mbps\n0,5\n0.7,5\n1.4,0\n2.1,5\n";
  EXPECT_EQ(run_bounded({"simulate", "--trace", path("gt.csv"), "--out",
                         path("log.csv")},
                        std::chrono::seconds(30)),
            0)
      << "simulate failed or did not finish within 30 s";
  EXPECT_TRUE(fs::exists(path("log.csv")));
}

TEST_F(CliTest, WhatIfRunsFromLogAlone) {
  ASSERT_EQ(run({"generate-trace", "--out", path("gt.csv")}), 0);
  ASSERT_EQ(run({"simulate", "--trace", path("gt.csv"), "--out",
                 path("log.csv")}),
            0);
  ASSERT_EQ(run({"whatif", "--log", path("log.csv"), "--abr", "bba",
                 "--samples", "3"}),
            0);
  EXPECT_NE(out_.str().find("veritas ssim=["), std::string::npos);
  EXPECT_NE(out_.str().find("baseline"), std::string::npos);
}

TEST_F(CliTest, ServeRunsRoundsAndReportsCache) {
  ASSERT_EQ(run({"generate-trace", "--out", path("gt.csv")}), 0);
  ASSERT_EQ(run({"simulate", "--trace", path("gt.csv"), "--out",
                 path("log1.csv")}),
            0);
  ASSERT_EQ(run({"simulate", "--trace", path("gt.csv"), "--out",
                 path("log2.csv"), "--abr", "bba"}),
            0);
  ASSERT_EQ(run({"serve", "--logs", path("log1.csv") + "," + path("log2.csv"),
                 "--repeat", "2", "--threads", "2", "--samples", "2"}),
            0);
  const std::string text = out_.str();
  EXPECT_NE(text.find("serving 2 sessions"), std::string::npos);
  EXPECT_NE(text.find("round 0:"), std::string::npos);
  EXPECT_NE(text.find("round 1:"), std::string::npos);
  // Round two re-submits the same logs: both answered from the cache.
  EXPECT_NE(text.find("served 4 queries (2 computed, 2 from cache)"),
            std::string::npos);
}

TEST_F(CliTest, ServeWritesPrometheusMetrics) {
  ASSERT_EQ(run({"generate-trace", "--out", path("gt.csv")}), 0);
  ASSERT_EQ(run({"simulate", "--trace", path("gt.csv"), "--out",
                 path("log.csv")}),
            0);
  ASSERT_EQ(run({"serve", "--logs", path("log.csv"), "--metrics-out",
                 path("metrics.prom")}),
            0);
  EXPECT_NE(out_.str().find("wrote metrics"), std::string::npos);
  ASSERT_TRUE(fs::exists(path("metrics.prom")));
  const std::string text = slurp(path("metrics.prom"));
  EXPECT_NE(text.find("# TYPE veritas_queries_total counter"),
            std::string::npos);
  // Default serve runs 2 rounds: round two answers from the cache.
  EXPECT_NE(text.find("veritas_queries_submitted_total 2"),
            std::string::npos);
  EXPECT_NE(text.find("veritas_queries_total{outcome=\"computed\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("veritas_queries_total{outcome=\"cache_hit\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("veritas_unreconciled_queries 0"), std::string::npos);
  EXPECT_NE(text.find("veritas_build_info{kernels="), std::string::npos);
}

TEST_F(CliTest, ServeTraceOutDependsOnBuildFlavor) {
  ASSERT_EQ(run({"generate-trace", "--out", path("gt.csv")}), 0);
  ASSERT_EQ(run({"simulate", "--trace", path("gt.csv"), "--out",
                 path("log.csv")}),
            0);
  ASSERT_EQ(run({"serve", "--logs", path("log.csv"), "--trace-out",
                 path("trace.json")}),
            0);
  if (util::Tracer::kCompiledIn) {
    EXPECT_NE(out_.str().find("wrote trace"), std::string::npos);
    ASSERT_TRUE(fs::exists(path("trace.json")));
    const std::string json = slurp(path("trace.json"));
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"service.execute\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"ehmm.forward\""), std::string::npos);
    util::Tracer::clear();
  } else {
    // Compiled out: the flag warns instead of writing an empty trace.
    EXPECT_NE(out_.str().find("tracing compiled out"), std::string::npos);
    EXPECT_FALSE(fs::exists(path("trace.json")));
  }
}

TEST_F(CliTest, ServeRequiresLogs) {
  EXPECT_EQ(run({"serve"}), 1);
  EXPECT_NE(err_.str().find("--logs"), std::string::npos);
}

TEST_F(CliTest, InferReportsLikelihood) {
  ASSERT_EQ(run({"generate-trace", "--out", path("gt.csv")}), 0);
  ASSERT_EQ(run({"simulate", "--trace", path("gt.csv"), "--out",
                 path("log.csv")}),
            0);
  ASSERT_EQ(run({"infer", "--log", path("log.csv"), "--out-prefix",
                 path("i")}),
            0);
  EXPECT_NE(out_.str().find("log-likelihood"), std::string::npos);
}

TEST_F(CliTest, UnknownOptionIsRejected) {
  ASSERT_EQ(run({"generate-trace", "--out", path("gt.csv")}), 0);
  ASSERT_EQ(run({"simulate", "--trace", path("gt.csv"), "--out",
                 path("log.csv")}),
            0);
  // A typo exits 1 naming the option and the command, and writes nothing.
  EXPECT_EQ(run({"infer", "--log", path("log.csv"), "--out-prefix",
                 path("inf"), "--smaples", "3"}),
            1);
  EXPECT_NE(err_.str().find("unknown option --smaples for infer"),
            std::string::npos)
      << err_.str();
  EXPECT_FALSE(fs::exists(path("inf_map.csv")));
  EXPECT_EQ(run({"generate-trace", "--out", path("gt2.csv"), "--sed", "3"}),
            1);
  EXPECT_NE(err_.str().find("unknown option --sed for generate-trace"),
            std::string::npos)
      << err_.str();
  EXPECT_FALSE(fs::exists(path("gt2.csv")));
  // A removed flag is unknown too.
  EXPECT_EQ(run({"infer", "--log", path("log.csv"), "--out-prefix",
                 path("inf"), "--powers", "2"}),
            1);
  EXPECT_NE(err_.str().find("unknown option --powers for infer"),
            std::string::npos)
      << err_.str();
  EXPECT_FALSE(fs::exists(path("inf_map.csv")));
  EXPECT_EQ(run({"serve", "--logs", path("log.csv"), "--metrics-out",
                 path("m.prom"), "--powers", "2"}),
            1);
  EXPECT_NE(err_.str().find("unknown option --powers for serve"),
            std::string::npos)
      << err_.str();
  EXPECT_FALSE(fs::exists(path("m.prom")));
  // An option another command reads is still unknown to this one.
  EXPECT_EQ(run({"predict", "--log", path("log.csv"), "--size", "1000000",
                 "--samples", "3"}),
            1);
  EXPECT_NE(err_.str().find("unknown option --samples for predict"),
            std::string::npos)
      << err_.str();
}

TEST_F(CliTest, ServeRejectsRemovedOverloadFlags) {
  ASSERT_EQ(run({"generate-trace", "--out", path("gt.csv")}), 0);
  ASSERT_EQ(run({"simulate", "--trace", path("gt.csv"), "--out",
                 path("log.csv")}),
            0);
  EXPECT_EQ(run({"serve", "--logs", path("log.csv"), "--priority",
                 "interactive"}),
            1);
  EXPECT_NE(err_.str().find("unknown option --priority for serve"),
            std::string::npos)
      << err_.str();
  EXPECT_EQ(run({"serve", "--logs", path("log.csv"), "--deadline-ms", "5"}),
            1);
  EXPECT_NE(err_.str().find("unknown option --deadline-ms for serve"),
            std::string::npos)
      << err_.str();
}

/// A recorded log cut to its header line: it parses, but has no chunks.
class HeaderOnlyLogTest : public CliTest {
 protected:
  void SetUp() override {
    CliTest::SetUp();
    ASSERT_EQ(run({"generate-trace", "--out", path("gt.csv")}), 0);
    ASSERT_EQ(run({"simulate", "--trace", path("gt.csv"), "--out",
                   path("full.csv")}),
              0);
    const std::string text = slurp(path("full.csv"));
    std::ofstream(path("log.csv")) << text.substr(0, text.find('\n') + 1);
  }

  void expect_rejected(std::initializer_list<std::string> args) {
    EXPECT_EQ(run(args), 1);
    EXPECT_NE(err_.str().find("session log has no data rows: " +
                              path("log.csv")),
              std::string::npos)
        << err_.str();
  }
};

TEST_F(HeaderOnlyLogTest, InferRejectsIt) {
  expect_rejected({"infer", "--log", path("log.csv"), "--out-prefix",
                   path("inf")});
  EXPECT_FALSE(fs::exists(path("inf_map.csv")));
}

TEST_F(HeaderOnlyLogTest, WhatIfRejectsIt) {
  expect_rejected({"whatif", "--log", path("log.csv"), "--buffer", "30"});
}

TEST_F(HeaderOnlyLogTest, PredictRejectsIt) {
  expect_rejected({"predict", "--log", path("log.csv"), "--size", "1000000"});
}

TEST_F(HeaderOnlyLogTest, ServeRejectsIt) {
  expect_rejected(
      {"serve", "--logs", path("full.csv") + "," + path("log.csv")});
}

}  // namespace
}  // namespace veritas::cli
