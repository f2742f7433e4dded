// Seeded mutation test of log and trace ingestion: real session logs and
// bandwidth traces, each damaged one way at a time (truncated at a random
// byte, a random byte flipped, a comma deleted, a stray quote inserted, a
// line duplicated). Every mutant must either parse into a well-formed
// value (finite fields, positive sizes and durations) or be rejected with
// ContractViolation; any other exception or a NaN that slips through
// fails the test.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "abr/abr_factory.hpp"
#include "sim/session.hpp"
#include "sim/session_log.hpp"
#include "trace/trace_generator.hpp"
#include "trace/trace_io.hpp"
#include "util/expects.hpp"
#include "video/ladder_presets.hpp"

namespace veritas {
namespace {

constexpr std::uint64_t kSeed = 20231;
constexpr int kMutantsPerKind = 60;

using Mutation = std::function<std::string(std::string, std::mt19937_64&)>;

std::size_t pick(std::size_t n, std::mt19937_64& rng) {
  return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
}

struct Kind {
  const char* name;
  Mutation mutate;
};

const std::vector<Kind>& kinds() {
  static const std::vector<Kind> all{
      {"truncate",
       [](std::string s, std::mt19937_64& rng) {
         s.resize(pick(s.size() + 1, rng));
         return s;
       }},
      {"flip-byte",
       [](std::string s, std::mt19937_64& rng) {
         const auto mask = static_cast<char>(1 + pick(255, rng));
         s[pick(s.size(), rng)] ^= mask;
         return s;
       }},
      {"delete-comma",
       [](std::string s, std::mt19937_64& rng) {
         std::vector<std::size_t> commas;
         for (std::size_t i = 0; i < s.size(); ++i) {
           if (s[i] == ',') commas.push_back(i);
         }
         if (!commas.empty()) s.erase(commas[pick(commas.size(), rng)], 1);
         return s;
       }},
      {"stray-quote",
       [](std::string s, std::mt19937_64& rng) {
         s.insert(pick(s.size() + 1, rng), 1, '"');
         return s;
       }},
      {"duplicate-line",
       [](std::string s, std::mt19937_64& rng) {
         std::vector<std::size_t> starts{0};
         for (std::size_t i = 0; i + 1 < s.size(); ++i) {
           if (s[i] == '\n') starts.push_back(i + 1);
         }
         const std::size_t begin = starts[pick(starts.size(), rng)];
         const std::size_t end = s.find('\n', begin);
         const std::string line =
             end == std::string::npos ? s.substr(begin) + "\n"
                                      : s.substr(begin, end - begin + 1);
         s.insert(begin, line);
         return s;
       }},
  };
  return all;
}

/// Runs every kind of mutation over `inputs`; `check` parses one mutant
/// and asserts what an accepted value must satisfy.
void run_mutants(const std::vector<std::string>& inputs,
                 const std::function<void(const std::string&)>& check) {
  std::mt19937_64 rng(kSeed);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const Kind& kind : kinds()) {
    for (std::size_t in = 0; in < inputs.size(); ++in) {
      for (int m = 0; m < kMutantsPerKind; ++m) {
        const std::string mutant = kind.mutate(inputs[in], rng);
        try {
          check(mutant);
          ++accepted;
        } catch (const ContractViolation&) {
          ++rejected;
        } catch (const std::exception& e) {
          ADD_FAILURE() << kind.name << " mutant " << m << " of input " << in
                        << " threw " << e.what();
        }
        if (::testing::Test::HasFailure()) {
          FAIL() << kind.name << " mutant " << m << " of input " << in;
        }
      }
    }
  }
  // Both outcomes occur, so neither branch is vacuous.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(CsvMutation, SessionLogsParseWellFormedOrThrow) {
  video::VideoConfig cfg = video::default_video_config();
  cfg.duration_s = 60.0;
  const video::Video v(cfg);
  std::vector<std::string> inputs;
  for (const auto family : {trace::TraceFamily::kFccLike,
                            trace::TraceFamily::kPoor,
                            trace::TraceFamily::kWideRange}) {
    const net::NetworkPath path(trace::make_traces(family, 1, 5)[0], 0.08);
    auto abr = abr::make_abr("mpc");
    inputs.push_back(sim::to_csv(sim::run_session(v, *abr, path).log));
  }
  run_mutants(inputs, [](const std::string& text) {
    const sim::SessionLog log = sim::session_log_from_csv(text);
    ASSERT_TRUE(std::isfinite(log.chunk_duration_s));
    ASSERT_TRUE(std::isfinite(log.rtt_s));
    for (const sim::ChunkLog& c : log.chunks) {
      ASSERT_TRUE(std::isfinite(c.size_bytes) && c.size_bytes > 0.0);
      ASSERT_TRUE(std::isfinite(c.start_s) && std::isfinite(c.end_s));
      ASSERT_GT(c.download_time_s(), 0.0);
      const net::TcpState& w = c.tcp_at_start;
      ASSERT_GT(w.cwnd_segments, 0.0);
      for (const double x : {w.cwnd_segments, w.ssthresh_segments, w.rto_s,
                             w.min_rtt_s, w.rtt_s, w.last_send_gap_s,
                             c.buffer_at_start_s}) {
        ASSERT_TRUE(std::isfinite(x));
      }
    }
  });
}

TEST(CsvMutation, TracesParseWellFormedOrThrow) {
  std::vector<std::string> inputs;
  for (const auto family : {trace::TraceFamily::kFccLike,
                            trace::TraceFamily::kPoor,
                            trace::TraceFamily::kWideRange}) {
    inputs.push_back(trace::to_csv(trace::make_traces(family, 1, 5)[0]));
  }
  run_mutants(inputs, [](const std::string& text) {
    const trace::BandwidthTrace t = trace::from_csv(text);
    ASSERT_TRUE(std::isfinite(t.interval_s()) && t.interval_s() > 0.0);
    ASSERT_GT(t.windows(), 0u);
    for (const double v : t.values_mbps()) {
      ASSERT_TRUE(std::isfinite(v) && v >= 0.0);
    }
  });
}

}  // namespace
}  // namespace veritas
