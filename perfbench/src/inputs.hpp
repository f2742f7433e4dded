// Seeded workload inputs. Everything here is the harness's own
// synthesis: ground-truth traces and the MPC deployment that turns them
// into session logs. None of it is timed or counted as set-up; the
// library under test only ever sees the resulting CSV text or logs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/session_log.hpp"
#include "trace/bandwidth_trace.hpp"
#include "video/video.hpp"

namespace perfbench {

/// A deployed session: its ground truth and the log MPC recorded on it.
struct DeployedSession {
  veritas::trace::BandwidthTrace ground_truth;
  veritas::sim::SessionLog log;
  std::string csv;  ///< sim::to_csv(log), what a what-if client sends
};

/// Deploys MPC (5 s buffer, default ladder — the paper's Setting A) on
/// `count` FCC-like traces drawn from `seed`, in parallel over `threads`.
/// Deterministic in (count, seed) regardless of `threads`.
std::vector<DeployedSession> deploy_sessions(std::size_t count,
                                             std::uint64_t seed,
                                             std::size_t threads);

/// Seed of the fixed fidelity panel. It does not depend on --seed, so
/// the fidelity metrics are a property of the code, identical on every
/// run, and a change that costs accuracy shows as an exact difference.
inline constexpr std::uint64_t kPanelSeed = 0x7e417a5f1de11ULL;

/// Path round-trip time of every deployment and replay (the
/// CounterfactualEngine default).
inline constexpr double kRttS = 0.08;

/// Per-query sampling seed for query `i` of a run seeded with `seed`.
std::uint64_t query_seed(std::uint64_t seed, std::uint64_t i);

/// The deployed video: the paper's 10-minute clip with the default ladder.
veritas::video::Video make_video();

}  // namespace perfbench
