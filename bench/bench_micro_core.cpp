// Microbenchmarks (google-benchmark) for the core inference primitives:
// Viterbi, forward-backward, posterior sampling, transition powers, the
// TCP simulator, the estimator f and the MPC horizon search, session-log
// parsing, counterfactual replays, plus a full end-to-end infer().
//
// Benchmarks that exercise the EHMM kernels take a `simd` argument:
// /simd:0 forces the scalar reference table, /simd:1 the bit-exact
// vector table (skipped when the binary or CPU lacks it), so one run
// records both kernel tiers side by side (tools/run_bench.sh). Every guarded benchmark labels itself with the
// *resolved* tier name so the JSON never reports a stale dispatch mode.
#include <benchmark/benchmark.h>

#include "abr/abr_factory.hpp"
#include "abr/mpc.hpp"
#include "core/inference_engine.hpp"
#include "core/veritas.hpp"
#include "math/simd_kernels.hpp"
#include "net/network_path.hpp"
#include "net/throughput_estimator.hpp"
#include "query/counterfactual.hpp"
#include "sim/session.hpp"
#include "sim/session_log.hpp"
#include "trace/trace_generator.hpp"
#include "util/trace.hpp"
#include "video/ladder_presets.hpp"

namespace {

using namespace veritas;
namespace sk = veritas::math::simd_kernels;

const sim::SessionLog& shared_log() {
  static const sim::SessionLog log = [] {
    const auto traces =
        trace::make_traces(trace::TraceFamily::kFccLike, 1, 2024);
    const video::Video video(video::default_video_config());
    auto abr = abr::make_abr("mpc");
    const net::NetworkPath path(traces[0], 0.08);
    return sim::run_session(video, *abr, path).log;
  }();
  return log;
}

/// Applies the benchmark's simd argument to the kernel dispatcher:
/// 0 = scalar reference, 1 = vector table. Returns false (after flagging
/// a skip) when the requested table is absent, and labels the benchmark
/// with the *resolved* tier name (sk::backend_name()) so recorded runs
/// identify the kernels that actually executed.
class KernelModeGuard {
 public:
  explicit KernelModeGuard(benchmark::State& state) {
    const int tier = static_cast<int>(state.range(0));
    if (tier == 1 && sk::simd_ops() == nullptr) {
      state.SkipWithError("SIMD kernel table unavailable");
      ok_ = false;
      return;
    }
    sk::set_mode(tier == 1 ? sk::Mode::kForceSimd : sk::Mode::kForceScalar);
    state.SetLabel(sk::backend_name());
  }
  ~KernelModeGuard() { sk::set_mode(sk::Mode::kAuto); }
  explicit operator bool() const { return ok_; }

 private:
  bool ok_ = true;
};

void BM_Viterbi(benchmark::State& state) {
  KernelModeGuard guard(state);
  if (!guard) return;
  const core::Veritas veritas;
  const core::Ehmm ehmm = veritas.make_ehmm();
  const auto obs = core::observations_from_log(shared_log());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ehmm.viterbi(obs));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(obs.size()));
}
BENCHMARK(BM_Viterbi)->ArgName("simd")->Arg(0)->Arg(1);

void BM_ForwardBackward(benchmark::State& state) {
  KernelModeGuard guard(state);
  if (!guard) return;
  const core::Veritas veritas;
  const core::Ehmm ehmm = veritas.make_ehmm();
  const auto obs = core::observations_from_log(shared_log());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ehmm.forward_backward(obs));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(obs.size()));
}
BENCHMARK(BM_ForwardBackward)->ArgName("simd")->Arg(0)->Arg(1);

// The forward-backward *recursion* phase: emission means precomputed
// once (the TCP estimator f is scalar and identical in both modes), so
// this isolates what the SIMD kernels actually touch — batched emission
// log-pdf, vectorized exp, forward/backward/pair sweeps.
void BM_ForwardBackwardRecursion(benchmark::State& state) {
  KernelModeGuard guard(state);
  if (!guard) return;
  const core::Veritas veritas;
  const core::Ehmm ehmm = veritas.make_ehmm();
  const auto obs = core::observations_from_log(shared_log());
  core::Ehmm::Scratch scratch;
  math::Matrix means;
  core::EstimatorCache means_cache;
  ehmm.emission_means_into(obs, means, means_cache);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ehmm.forward_backward_from_means(obs, means, scratch));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(obs.size()));
}
BENCHMARK(BM_ForwardBackwardRecursion)->ArgName("simd")->Arg(0)->Arg(1);

void BM_PosteriorSample(benchmark::State& state) {
  const core::Veritas veritas;
  const core::Ehmm ehmm = veritas.make_ehmm();
  const auto obs = core::observations_from_log(shared_log());
  core::Ehmm::Scratch scratch;
  const auto pass = ehmm.infer_fused(obs, scratch);
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::sample_capacity_states(
        ehmm, pass.viterbi, pass.forward_backward, scratch, rng));
  }
}
BENCHMARK(BM_PosteriorSample);

void BM_FullInfer(benchmark::State& state) {
  KernelModeGuard guard(state);
  if (!guard) return;
  const core::Veritas veritas;
  for (auto _ : state) {
    benchmark::DoNotOptimize(veritas.infer(shared_log()));
  }
}
BENCHMARK(BM_FullInfer)->ArgName("simd")->Arg(0)->Arg(1);

core::VeritasConfig multi_window_config() {
  core::VeritasConfig cfg;
  cfg.estimator = core::EmissionModel::Estimator::kMultiWindow;
  return cfg;
}

void BM_FullInferMultiWindow(benchmark::State& state) {
  const core::Veritas veritas(multi_window_config());
  for (auto _ : state) {
    benchmark::DoNotOptimize(veritas.infer(shared_log()));
  }
}
BENCHMARK(BM_FullInferMultiWindow);

// The fused engine pass (emissions + deltas once, Viterbi + smoothing
// sharing them) with a reused scratch arena — the per-session hot path
// of InferenceEngine::infer_batch.
void BM_FusedSessionPass(benchmark::State& state) {
  KernelModeGuard guard(state);
  if (!guard) return;
  const core::InferenceEngine engine{core::VeritasConfig{}};
  const auto obs = core::observations_from_log(shared_log());
  core::Ehmm::Scratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.infer_session(obs, scratch));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(obs.size()));
}
BENCHMARK(BM_FusedSessionPass)->ArgName("simd")->Arg(0)->Arg(1);

void BM_FusedSessionPassMultiWindow(benchmark::State& state) {
  const core::InferenceEngine engine{multi_window_config()};
  const auto obs = core::observations_from_log(shared_log());
  core::Ehmm::Scratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.infer_session(obs, scratch));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(obs.size()));
}
BENCHMARK(BM_FusedSessionPassMultiWindow);

void BM_EmissionLogProbs(benchmark::State& state) {
  const core::InferenceEngine engine{
      state.range(0) == 0 ? core::VeritasConfig{} : multi_window_config()};
  const auto obs = core::observations_from_log(shared_log());
  math::Matrix logs;
  for (auto _ : state) {
    engine.ehmm().emission_log_probs_into(obs, logs);
    benchmark::DoNotOptimize(logs);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(obs.size()));
}
BENCHMARK(BM_EmissionLogProbs)->Arg(0)->Arg(1);

// ------------------------------------------------------- kernel-level

/// Shared fixture for the raw kernel benches: one prepared session
/// (padded scratch tables) plus the Δ=1 transition tables.
struct KernelFixture {
  core::Veritas veritas;
  core::Ehmm ehmm = veritas.make_ehmm();
  std::vector<core::ChunkObservation> obs =
      core::observations_from_log(shared_log());
  core::Ehmm::Scratch scratch;
  math::Matrix means;  ///< dense emission means (the Scratch path is
                       ///< zero-copy since PR 7, so build our own)
  sk::DeltaTables tables;
  std::size_t k = 0;
  std::size_t stride = 0;

  KernelFixture() {
    (void)ehmm.forward_backward(obs, scratch);
    core::EstimatorCache means_cache;
    ehmm.emission_means_into(obs, means, means_cache);
    tables = ehmm.transition().power_view(1);
    k = ehmm.space().size();
    stride = tables.stride;
  }
};

const KernelFixture& kernel_fixture() {
  static const KernelFixture fixture;
  return fixture;
}

const sk::KernelOps& bench_ops(const benchmark::State& state) {
  return state.range(0) == 1 ? *sk::simd_ops() : sk::scalar_ops();
}

bool skip_if_no_simd(benchmark::State& state) {
  if (state.range(0) == 1 && sk::simd_ops() == nullptr) {
    state.SkipWithError("SIMD kernel table unavailable");
    return true;
  }
  state.SetLabel(bench_ops(state).name);
  return false;
}

// One batched emission row: k Normal log-densities from a means row.
void BM_KernelEmissionRow(benchmark::State& state) {
  if (skip_if_no_simd(state)) return;
  const KernelFixture& f = kernel_fixture();
  const sk::KernelOps& ops = bench_ops(state);
  std::vector<double> out(f.stride, 0.0);
  const double* means = f.means.row_data(0);
  for (auto _ : state) {
    ops.emission_log_pdf_row(4.2, means, f.k, f.stride, 0.5,
                             -0.6931471805599453, 0.9189385332046727,
                             out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(f.k));
}
BENCHMARK(BM_KernelEmissionRow)->ArgName("simd")->Arg(0)->Arg(1);

// One row of exp(log_e - max): the forward-backward emission rescale.
void BM_KernelExpRow(benchmark::State& state) {
  if (skip_if_no_simd(state)) return;
  const KernelFixture& f = kernel_fixture();
  const sk::KernelOps& ops = bench_ops(state);
  std::vector<double> out(f.stride, 0.0);
  const double* log_row = f.scratch.log_emission.row_data(0);
  for (auto _ : state) {
    ops.exp_rows(log_row, 1.5, f.stride, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(f.stride));
}
BENCHMARK(BM_KernelExpRow)->ArgName("simd")->Arg(0)->Arg(1);

// One k² max-plus Viterbi step over the dense Δ=1 tables.
void BM_KernelViterbiStep(benchmark::State& state) {
  if (skip_if_no_simd(state)) return;
  const KernelFixture& f = kernel_fixture();
  const sk::KernelOps& ops = bench_ops(state);
  const double* prev = f.scratch.log_emission.row_data(0);
  const double* e_n = f.scratch.log_emission.row_data(1);
  std::vector<double> curr(f.stride, 0.0);
  std::vector<std::uint32_t> back(f.stride, 0);
  for (auto _ : state) {
    ops.viterbi_step(prev, f.tables, f.k, e_n, curr.data(), back.data());
    benchmark::DoNotOptimize(curr.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(f.k * f.k));
}
BENCHMARK(BM_KernelViterbiStep)->ArgName("simd")->Arg(0)->Arg(1);

// One k² sum-product forward step.
void BM_KernelForwardStep(benchmark::State& state) {
  if (skip_if_no_simd(state)) return;
  const KernelFixture& f = kernel_fixture();
  const sk::KernelOps& ops = bench_ops(state);
  const double* prev = f.scratch.alpha.row_data(0);
  const double* em_n = f.scratch.em.row_data(1);
  std::vector<double> row(f.stride, 0.0);
  for (auto _ : state) {
    ops.forward_step(prev, f.tables, f.k, em_n, row.data());
    benchmark::DoNotOptimize(row.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(f.k * f.k));
}
BENCHMARK(BM_KernelForwardStep)->ArgName("simd")->Arg(0)->Arg(1);

// One k² backward step with the fused pair-posterior normalizer.
void BM_KernelBackwardPairStep(benchmark::State& state) {
  if (skip_if_no_simd(state)) return;
  const KernelFixture& f = kernel_fixture();
  const sk::KernelOps& ops = bench_ops(state);
  const double* em_next = f.scratch.em.row_data(1);
  const double* beta_next = f.scratch.beta.row_data(1);
  const double* alpha_n = f.scratch.alpha.row_data(0);
  std::vector<double> beta_n(f.stride, 0.0);
  double pair = 0.0;
  for (auto _ : state) {
    ops.backward_step(f.tables, f.k, em_next, beta_next, 1.25,
                      beta_n.data(), alpha_n, &pair);
    benchmark::DoNotOptimize(pair);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(f.k * f.k));
}
BENCHMARK(BM_KernelBackwardPairStep)->ArgName("simd")->Arg(0)->Arg(1);

// --------------------------------------------------------- transition

void BM_TransitionPower(benchmark::State& state) {
  const auto model = core::TransitionModel::tridiagonal(21);
  for (auto _ : state) {
    // Cold cache each round: build a fresh power via matrix_power.
    benchmark::DoNotOptimize(
        math::matrix_power(model.matrix(), std::size_t(state.range(0))));
  }
}
BENCHMARK(BM_TransitionPower)->Arg(2)->Arg(16)->Arg(128);

// Steady-state lookup of a built power: inside the slot window (one
// acquire load) vs past it (shared-lock memo find; delta 200 is built
// on the first call). Entries are built on first use either way, so the
// window size (Ehmm::kDefaultPrecomputedPowers) costs no build time;
// it only decides which gap lengths get the lock-free lookup.
void BM_TransitionPowerLookup(benchmark::State& state) {
  static const core::TransitionModel model = [] {
    core::TransitionModel m = core::TransitionModel::tridiagonal(21);
    m.precompute_powers(core::Ehmm::kDefaultPrecomputedPowers);
    return m;
  }();
  const auto delta = std::size_t(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(&model.power(delta));
  }
}
BENCHMARK(BM_TransitionPowerLookup)->ArgName("delta")->Arg(16)->Arg(200);

// Engine construction at the paper's default config: the build every
// per-query what-if (CounterfactualEngine::abduct) pays. A^Δ entries
// are built on first lookup, so this is state space, transition and
// emission model set-up plus the empty slot array.
void BM_EngineBuild(benchmark::State& state) {
  const core::VeritasConfig config;
  for (auto _ : state) {
    const core::InferenceEngine engine(config);
    benchmark::DoNotOptimize(&engine);
  }
}
BENCHMARK(BM_EngineBuild);

void BM_EstimatorF(benchmark::State& state) {
  net::TcpState w;
  w.cwnd_segments = 25.0;
  w.ssthresh_segments = 30.0;
  w.last_send_gap_s = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net::estimate_throughput_mbps(4.0, w, double(state.range(0))));
  }
}
BENCHMARK(BM_EstimatorF)->Arg(25000)->Arg(250000)->Arg(1000000);

// ------------------------------------------ batched estimator (PR 5)

/// k = 17 states (ε = 0.5, max 8 Mbps): the candidate-count the PR 5
/// acceptance bar is written against.
core::VeritasConfig k17_config() {
  core::VeritasConfig cfg;
  cfg.max_mbps = 8.0;
  return cfg;
}

/// f over the whole 17-candidate row in one call. /simd:0 runs the
/// reference composition (17 scalar estimator calls — the PR 4 emission
/// path), /simd:1 the lane-parallel kernel.
void BM_EstimatorBatchK17(benchmark::State& state) {
  KernelModeGuard guard(state);
  if (!guard) return;
  std::vector<double> candidates;
  for (int i = 0; i < 17; ++i) candidates.push_back(0.5 * i);
  net::TcpState w;
  w.cwnd_segments = 25.0;
  w.ssthresh_segments = 30.0;
  w.last_send_gap_s = 1.0;
  std::vector<double> out(candidates.size(), 0.0);
  for (auto _ : state) {
    net::estimate_throughput_batch(candidates, w, 250000.0, net::TcpConfig{},
                                   out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(candidates.size()));
}
BENCHMARK(BM_EstimatorBatchK17)->ArgName("simd")->Arg(0)->Arg(1);

/// CA-dominated batch: every candidate's pipe is wider than the opening
/// window (bdp > cwnd0 at min_rtt 80 ms needs gtbw > 1.8 Mbps, so no
/// lane short-circuits to the covered-pipe branch) and the window starts
/// above ssthresh (no slow start, no idle gap → no SSR) with a large
/// transfer, so every lane opens with a long congestion-avoidance run.
/// PR 6 drained each lane to the scalar per-candidate CA loop here;
/// PR 7 keeps the candidates in SoA lanes through the arithmetic-series
/// CA jump, which is where this bench's /simd:1-vs-/simd:0 gap comes
/// from.
void BM_EstimatorBatchCaHeavyK17(benchmark::State& state) {
  KernelModeGuard guard(state);
  if (!guard) return;
  std::vector<double> candidates;
  for (int i = 0; i < 17; ++i) candidates.push_back(4.0 + 4.0 * i);
  net::TcpState w;
  w.cwnd_segments = 12.0;
  w.ssthresh_segments = 6.0;
  w.last_send_gap_s = 0.0;
  std::vector<double> out(candidates.size(), 0.0);
  for (auto _ : state) {
    net::estimate_throughput_batch(candidates, w, 16000000.0,
                                   net::TcpConfig{}, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(candidates.size()));
}
BENCHMARK(BM_EstimatorBatchCaHeavyK17)->ArgName("simd")->Arg(0)->Arg(1);

/// The emission-means phase of one session (the estimator-bound part of
/// prepare()): /warm:0 clears the (W, S) cache every iteration (every
/// tuple re-runs f — the cross-session-cache-less cost), /warm:1 leaves
/// it warm (every tuple is a row copy — the steady state of an engine
/// serving repeat traffic).
void BM_EmissionMeansK17(benchmark::State& state) {
  KernelModeGuard guard(state);
  if (!guard) return;
  const bool warm = state.range(1) == 1;
  const core::InferenceEngine engine{k17_config()};
  const auto obs = core::observations_from_log(shared_log());
  core::EstimatorCache cache;
  math::Matrix means;
  for (auto _ : state) {
    if (!warm) {
      state.PauseTiming();
      cache.clear();
      state.ResumeTiming();
    }
    engine.ehmm().emission_means_into(obs, means, cache);
    benchmark::DoNotOptimize(means.row_data(0));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(obs.size()));
}
BENCHMARK(BM_EmissionMeansK17)
    ->ArgNames({"simd", "warm"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

/// The PR 5 headline: one full forward-backward call *including* the
/// estimator-driven emission phase, k = 17.
///
/// BM_FbWithEstimatorPr4BaselineK17 replays the PR 4 cost model in the
/// current binary: emission means through the scalar per-candidate
/// estimator with a per-session memo (cold cache each call), recursions
/// through the SIMD kernels — the exact composition PR 4 shipped.
/// BM_FbWithEstimatorK17 is the PR 5 path: batched estimator under the
/// dispatch mode of /simd, cross-session cache warm or cold per /warm.
void BM_FbWithEstimatorPr4BaselineK17(benchmark::State& state) {
  if (sk::simd_ops() == nullptr) {
    state.SkipWithError("SIMD kernel table unavailable");
    return;
  }
  const core::InferenceEngine engine{k17_config()};
  const auto obs = core::observations_from_log(shared_log());
  core::Ehmm::Scratch scratch;
  core::EstimatorCache cache;
  math::Matrix means;
  for (auto _ : state) {
    cache.clear();  // per-session memo semantics
    {
      sk::ScopedMode scalar_mode(sk::Mode::kForceScalar);
      engine.ehmm().emission_means_into(obs, means, cache);
    }
    sk::ScopedMode simd_mode(sk::Mode::kForceSimd);
    benchmark::DoNotOptimize(
        engine.ehmm().forward_backward_from_means(obs, means, scratch));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(obs.size()));
}
BENCHMARK(BM_FbWithEstimatorPr4BaselineK17);

void BM_FbWithEstimatorK17(benchmark::State& state) {
  KernelModeGuard guard(state);
  if (!guard) return;
  const bool warm = state.range(1) == 1;
  const core::InferenceEngine engine{k17_config()};
  const auto obs = core::observations_from_log(shared_log());
  core::Ehmm::Scratch scratch;
  scratch.estimator_cache = engine.estimator_cache();
  for (auto _ : state) {
    if (!warm) {
      state.PauseTiming();
      scratch.estimator_cache->clear();
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(engine.ehmm().forward_backward(obs, scratch));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(obs.size()));
}
BENCHMARK(BM_FbWithEstimatorK17)
    ->ArgNames({"simd", "warm"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

// One download of state.range(0) bytes on a fresh connection, over a
// constant 5 Mbps trace on 5 s windows (fcc:0) or an FCC-like trace on
// 1 s windows (fcc:1), where a large download crosses window boundaries.
void BM_TcpDownload(benchmark::State& state) {
  const auto bw =
      state.range(1) == 0
          ? trace::BandwidthTrace::constant(5.0, 100000.0, 5.0)
          : trace::make_traces(trace::TraceFamily::kFccLike, 1, 7)[0];
  for (auto _ : state) {
    net::TcpConnection conn(net::TcpConfig{}, 0.08);
    benchmark::DoNotOptimize(conn.download(bw, 0.0, double(state.range(0))));
  }
}
BENCHMARK(BM_TcpDownload)
    ->ArgNames({"bytes", "fcc"})
    ->Args({25000, 0})
    ->Args({1000000, 0})
    ->Args({25000, 1})
    ->Args({1000000, 1});

void BM_FullSession(benchmark::State& state) {
  const auto traces = trace::make_traces(trace::TraceFamily::kFccLike, 1, 7);
  const video::Video video(video::default_video_config());
  const net::NetworkPath path(traces[0], 0.08);
  for (auto _ : state) {
    auto abr = abr::make_abr("mpc");
    benchmark::DoNotOptimize(sim::run_session(video, *abr, path));
  }
}
BENCHMARK(BM_FullSession);

// One MPC horizon search mid-session, at a buffer capacity of
// state.range(0) seconds: 5 s is the deployed setting, 30 s the one the
// paper's Fig. 10 what-if replays. The context is chunk 150 of an MPC
// session at that capacity on the shared log's trace (at 5 s, the shared
// log itself), with the 150 downloads before it as history. Repeated
// calls on one instance settle the robust error window and the previous
// quality after a few iterations, so this times the steady-state
// decision that every counterfactual replay runs per chunk.
void BM_MpcChooseQuality(benchmark::State& state) {
  const video::Video video(video::default_video_config());
  const auto traces =
      trace::make_traces(trace::TraceFamily::kFccLike, 1, 2024);
  sim::SessionConfig config;
  config.buffer_capacity_s = static_cast<double>(state.range(0));
  abr::Mpc deployed;
  const sim::SessionLog log =
      sim::run_session(video, deployed, net::NetworkPath(traces[0], 0.08),
                       config)
          .log;
  const std::size_t next = log.size() / 2;
  std::vector<abr::DownloadedChunk> history;
  for (std::size_t n = 0; n < next; ++n) {
    const sim::ChunkLog& c = log.chunks[n];
    history.push_back({c.index, c.quality, c.size_bytes, c.download_time_s()});
  }
  abr::AbrContext context;
  context.video = &video;
  context.next_chunk = next;
  context.buffer_s = log.chunks[next].buffer_at_start_s;
  context.buffer_capacity_s = config.buffer_capacity_s;
  context.history = history;
  abr::Mpc mpc;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mpc.choose_quality(context));
  }
}
BENCHMARK(BM_MpcChooseQuality)->Arg(5)->Arg(30);

// One 300-chunk MPC session on an FCC-like trace with a 30 s buffer: the
// replay the paper's Fig. 10 buffer what-if runs per posterior sample.
void BM_MpcSession(benchmark::State& state) {
  const auto traces = trace::make_traces(trace::TraceFamily::kFccLike, 1, 7);
  const video::Video video(video::default_video_config());
  const net::NetworkPath path(traces[0], 0.08);
  sim::SessionConfig config;
  config.buffer_capacity_s = 30.0;
  abr::Mpc mpc;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_session(video, mpc, path, config));
  }
}
BENCHMARK(BM_MpcSession);

// One counterfactual replay as predict_whatif runs it (session plus
// metrics) on the first Veritas posterior sample of the shared FCC-like
// log: BBA at a 5 s buffer (setting:0, the Fig. 9 what-if) and MPC at a
// 30 s buffer (setting:1, the Fig. 10 what-if).
void BM_ReplaySession(benchmark::State& state) {
  static const trace::BandwidthTrace sample =
      core::Veritas().infer(shared_log()).samples.front();
  const video::Video video(video::default_video_config());
  query::Setting setting;
  setting.abr = state.range(0) == 0 ? "bba" : "mpc";
  setting.buffer_capacity_s = state.range(0) == 0 ? 5.0 : 30.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        query::run_under_setting(sample, video, setting, 0.08, 0));
  }
}
BENCHMARK(BM_ReplaySession)->ArgName("setting")->Arg(0)->Arg(1);

// Reading one recorded 300-chunk MPC session log from its CSV text: the
// ingestion step every what-if query starts with (sim.parse_us in the
// traced perfbench run).
void BM_ParseSessionLog(benchmark::State& state) {
  const std::string csv = sim::to_csv(shared_log());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::session_log_from_csv(csv));
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(csv.size()));
}
BENCHMARK(BM_ParseSessionLog);

// The observability tax (PR 8): a TraceSpan site when tracing is
// disabled costs one relaxed atomic load (or, with the macro compiled
// out under -DVERITAS_TRACING=OFF, nothing at all — this bench then
// measures the bare loop); when enabled it adds two steady_clock reads
// plus a mutex-guarded ring store. Both numbers feed the overhead table
// in docs/OBSERVABILITY.md.
void BM_TraceSpanDisabled(benchmark::State& state) {
  util::Tracer::set_enabled(false);
  for (auto _ : state) {
    VERITAS_TRACE_SPAN("bench.disabled", "bench");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TraceSpanDisabled);

void BM_TraceSpanEnabled(benchmark::State& state) {
  if (!util::Tracer::kCompiledIn) {
    state.SkipWithError("tracing compiled out (-DVERITAS_TRACING=OFF)");
    return;
  }
  util::Tracer::clear();
  util::Tracer::set_enabled(true);
  for (auto _ : state) {
    VERITAS_TRACE_SPAN("bench.enabled", "bench");
    benchmark::ClobberMemory();
  }
  util::Tracer::set_enabled(false);
  util::Tracer::clear();
}
BENCHMARK(BM_TraceSpanEnabled);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the run context records the
// *resolved* kernel tier (what active_ops() dispatches to by default),
// so a recorded BENCH_*.json identifies the kernels that actually ran.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("kernels_default", sk::backend_name());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
