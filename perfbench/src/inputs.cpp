#include "inputs.hpp"

#include <memory>

#include "abr/abr_factory.hpp"
#include "net/network_path.hpp"
#include "sim/session.hpp"
#include "trace/trace_generator.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "video/ladder_presets.hpp"

namespace perfbench {

using namespace veritas;

video::Video make_video() {
  return video::Video(video::default_video_config());
}

std::uint64_t query_seed(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t state = seed ^ (0x51ed270b27a3f3b5ULL * (i + 1));
  return util::splitmix64(state);
}

std::vector<DeployedSession> deploy_sessions(std::size_t count,
                                             std::uint64_t seed,
                                             std::size_t threads) {
  std::vector<trace::BandwidthTrace> traces =
      trace::make_traces(trace::TraceFamily::kFccLike, count, seed);
  const video::Video video = make_video();
  std::vector<DeployedSession> sessions(count);
  util::ThreadPool pool(threads > 1 ? threads - 1 : 0);
  pool.parallel_for(count, [&](std::size_t, std::size_t i) {
    const std::unique_ptr<abr::AbrAlgorithm> mpc = abr::make_abr("mpc");
    const net::NetworkPath path(traces[i], kRttS);
    DeployedSession& s = sessions[i];
    s.log = sim::run_session(video, *mpc, path).log;
    s.csv = sim::to_csv(s.log);
    s.ground_truth = std::move(traces[i]);
  });
  return sessions;
}

}  // namespace perfbench
