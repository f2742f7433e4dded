#include "core/ehmm.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numbers>

#include "math/distributions.hpp"
#include "math/simd_kernels.hpp"
#include "util/expects.hpp"
#include "util/hash.hpp"
#include "util/trace.hpp"

namespace veritas::core {

using math::kNegInf;
using math::safe_log;

using math::simd_kernels::DeltaTables;
using math::simd_kernels::KernelOps;

Ehmm::Ehmm(StateSpace space, TransitionModel transition,
           EmissionModel emission, double delta_s,
           std::size_t precompute_powers)
    : space_(std::move(space)),
      transition_(std::move(transition)),
      emission_(std::move(emission)),
      delta_s_(delta_s) {
  VERITAS_EXPECTS(delta_s_ > 0.0);
  VERITAS_EXPECTS(space_.size() == transition_.states());

  multi_window_ =
      emission_.estimator() == EmissionModel::Estimator::kMultiWindow;
  transition_.precompute_powers(
      multi_window_ ? std::max(precompute_powers, kMaxSpanWindows)
                    : precompute_powers);

  if (multi_window_) {
    // Candidate table for the span-averaged emission mean: entry
    // (i, span) replays the per-observation loop the estimator used to
    // run — sum over m of E[C_{sn+m} | C_sn = value(i)] divided by span —
    // with identical accumulation order, so emissions stay bit-identical
    // while the per-observation cost drops from O(span * K) to O(1).
    const std::size_t k = space_.size();
    span_candidates_ = math::Matrix(k, kMaxSpanWindows + 1, 0.0);
    for (std::size_t i = 0; i < k; ++i) {
      span_candidates_(i, 0) = space_.value(i);
      span_candidates_(i, 1) = space_.value(i);
      double sum = 0.0;
      for (std::size_t m = 0; m < kMaxSpanWindows; ++m) {
        const math::Matrix& a_m = transition_.power(m);
        double expected = 0.0;
        for (std::size_t j = 0; j < k; ++j) {
          expected += a_m(i, j) * space_.value(j);
        }
        sum += expected;
        if (m >= 1) {
          span_candidates_(i, m + 1) = sum / static_cast<double>(m + 1);
        }
      }
    }
  }

  candidate_values_ = space_.values();

  // Candidate-table id: a digest of everything an emission-mean row
  // depends on besides (W, S). Two Ehmms produce bit-identical rows for
  // every tuple iff these inputs match, so the id scopes EstimatorCache
  // entries — a retrained transition model (kMultiWindow span table) or
  // a different TcpConfig gets fresh keys by construction. σ is
  // deliberately absent: the means do not depend on it.
  util::Fnv1aHasher hasher;
  hasher.u64(static_cast<std::uint64_t>(emission_.estimator()));
  const net::TcpConfig& tcp = emission_.tcp_config();
  hasher.u64(static_cast<std::uint64_t>(tcp.congestion_control))
      .f64(tcp.mss_bytes)
      .f64(tcp.init_cwnd)
      .f64(tcp.initial_ssthresh)
      .f64(tcp.min_rto_s)
      .f64(tcp.rwnd_segments)
      .u64(tcp.enable_ssr ? 1 : 0)
      .u64(tcp.enable_loss ? 1 : 0)
      .f64(tcp.queue_bdp_factor)
      .u64(tcp.enable_hystart ? 1 : 0)
      .f64(tcp.hystart_bdp_fraction)
      .f64(tcp.rate_jitter);
  hasher.f64(delta_s_).u64(candidate_values_.size());
  for (const double v : candidate_values_) hasher.f64(v);
  if (multi_window_) {
    hasher.u64(span_candidates_.rows()).u64(span_candidates_.cols());
    for (std::size_t i = 0; i < span_candidates_.rows(); ++i) {
      for (std::size_t s = 0; s < span_candidates_.cols(); ++s) {
        hasher.f64(span_candidates_(i, s));
      }
    }
  }
  emission_table_id_ = hasher.digest();
}

std::size_t Ehmm::window_of(double t_s) const {
  VERITAS_EXPECTS(t_s >= 0.0);
  return static_cast<std::size_t>(t_s / delta_s_);
}

void Ehmm::window_deltas_into(std::span<const ChunkObservation> observations,
                              std::vector<std::size_t>& out) const {
  VERITAS_EXPECTS(!observations.empty());
  out.assign(observations.size(), 0);
  for (std::size_t n = 1; n < observations.size(); ++n) {
    const std::size_t prev = window_of(observations[n - 1].start_s);
    const std::size_t curr = window_of(observations[n].start_s);
    VERITAS_EXPECTS(curr >= prev);
    out[n] = curr - prev;
  }
}

std::vector<std::size_t> Ehmm::window_deltas(
    std::span<const ChunkObservation> observations) const {
  std::vector<std::size_t> deltas;
  window_deltas_into(observations, deltas);
  return deltas;
}

namespace {

/// Quantizes the estimator inputs of observations[n] when the cache is
/// lossy (both the key and the evaluation use the quantized values, so a
/// hit stays bit-identical to the miss that filled it); pass-through
/// otherwise. `storage` backs the quantized copy across loop iterations.
const ChunkObservation& quantized_view(const EstimatorCache& cache,
                                       bool quantized,
                                       const ChunkObservation& raw,
                                       ChunkObservation& storage) {
  if (!quantized) return raw;
  storage = raw;
  storage.tcp.cwnd_segments = cache.quantize(storage.tcp.cwnd_segments);
  storage.tcp.ssthresh_segments =
      cache.quantize(storage.tcp.ssthresh_segments);
  storage.tcp.rto_s = cache.quantize(storage.tcp.rto_s);
  storage.tcp.min_rtt_s = cache.quantize(storage.tcp.min_rtt_s);
  storage.tcp.rtt_s = cache.quantize(storage.tcp.rtt_s);
  storage.tcp.last_send_gap_s = cache.quantize(storage.tcp.last_send_gap_s);
  storage.size_bytes = cache.quantize(storage.size_bytes);
  return storage;
}

}  // namespace

void Ehmm::compute_cache_entry(const ChunkObservation& obs,
                               EstimatorCache::Entry& entry,
                               std::vector<double>& y0_row,
                               std::vector<double>& span_cands,
                               std::vector<std::uint8_t>& span_gt1) const {
  const std::size_t k = space_.size();
  entry.mean.resize(k);
  if (!multi_window_) {
    // One batched estimator call for the whole candidate row.
    emission_.mean_throughput_row(candidate_values_.data(), k, obs,
                                  entry.mean.data());
    return;
  }
  // Replace each candidate with its expected average over the download
  // span: estimate the span from f at the start value (first batched
  // call), then re-evaluate f at the precomputed span-averaged candidate
  // for the spans that exceed one window (second batched call;
  // single-window lanes keep y0 and are fed a zero candidate, which
  // short-circuits inside f).
  emission_.mean_throughput_row(candidate_values_.data(), k, obs,
                                y0_row.data());
  bool any_span = false;
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t span_windows = 1;
    if (y0_row[i] > 1e-9) {
      const double est_duration = obs.size_bytes * 8.0 / 1e6 / y0_row[i];
      span_windows = std::min<std::size_t>(
          static_cast<std::size_t>(est_duration / delta_s_) + 1,
          kMaxSpanWindows);
    }
    span_gt1[i] = span_windows > 1 ? 1 : 0;
    span_cands[i] =
        span_windows > 1 ? span_candidates_(i, span_windows) : 0.0;
    any_span |= span_windows > 1;
  }
  if (any_span) {
    emission_.mean_throughput_row(span_cands.data(), k, obs,
                                  entry.mean.data());
    for (std::size_t i = 0; i < k; ++i) {
      if (span_gt1[i] == 0) entry.mean[i] = y0_row[i];
    }
  } else {
    std::memcpy(entry.mean.data(), y0_row.data(), k * sizeof(double));
  }
  entry.plain.assign(y0_row.begin(), y0_row.end());
}

void Ehmm::emission_means_into(std::span<const ChunkObservation> observations,
                               math::Matrix& means, EstimatorCache& cache,
                               math::Matrix* plain_means,
                               EstimatorCache::L1* l1) const {
  VERITAS_EXPECTS(!observations.empty());
  const std::size_t n_obs = observations.size();
  const std::size_t k = space_.size();
  // Padded rows: the batched emission kernel may read whole lanes.
  means.resize_padded(n_obs, k, 0.0);
  if (plain_means != nullptr) plain_means->resize_padded(n_obs, k, 0.0);
  const bool quantized = cache.quantizes();
  if (l1 != nullptr) l1->sync(cache);
  // kMultiWindow span-estimation buffers, reused across rows.
  std::vector<double> y0_row;
  std::vector<double> span_cands;
  std::vector<std::uint8_t> span_gt1;
  if (multi_window_) {
    y0_row.resize(k);
    span_cands.resize(k);
    span_gt1.resize(k);
  }
  ChunkObservation quantized_obs;
  for (std::size_t n = 0; n < n_obs; ++n) {
    const ChunkObservation& obs =
        quantized_view(cache, quantized, observations[n], quantized_obs);
    double* mean_row = means.row_data(n);
    double* plain_row =
        plain_means != nullptr ? plain_means->row_data(n) : nullptr;
    const EstimatorCache::Key key =
        EstimatorCache::key_of(obs.tcp, obs.size_bytes, emission_table_id_);
    const EstimatorCache::Entry* hit = nullptr;
    if (l1 != nullptr) {
      // L1 first: a repeat tuple inside this lane costs a handful of
      // probes instead of a shard lock + hash-map lookup. No put happens
      // between find and the memcpy below, so the raw pointer is safe.
      if (const std::shared_ptr<const EstimatorCache::Entry>* pinned =
              l1->find(key)) {
        hit = pinned->get();
      }
    }
    std::shared_ptr<const EstimatorCache::Entry> shared_hit;
    if (hit == nullptr) {
      shared_hit = cache.find(key);
      if (shared_hit != nullptr) {
        hit = shared_hit.get();
        if (l1 != nullptr) l1->put(key, std::move(shared_hit));
      }
    }
    if (hit != nullptr) {
      // This (TCP state, size) tuple already ran the estimator — in this
      // session, an earlier one, or on another thread: the row is
      // identical by construction.
      std::memcpy(mean_row, hit->mean.data(), k * sizeof(double));
      if (plain_row != nullptr) {
        const std::vector<double>& plain =
            hit->plain.empty() ? hit->mean : hit->plain;
        std::memcpy(plain_row, plain.data(), k * sizeof(double));
      }
      continue;
    }
    auto entry = std::make_shared<EstimatorCache::Entry>();
    compute_cache_entry(obs, *entry, y0_row, span_cands, span_gt1);
    std::memcpy(mean_row, entry->mean.data(), k * sizeof(double));
    if (plain_row != nullptr) {
      const std::vector<double>& plain =
          entry->plain.empty() ? entry->mean : entry->plain;
      std::memcpy(plain_row, plain.data(), k * sizeof(double));
    }
    if (l1 != nullptr) l1->put(key, entry);
    cache.insert(key, std::move(entry));
  }
}

void Ehmm::emission_mean_rows_into(
    std::span<const ChunkObservation> observations, EstimatorCache& cache,
    EstimatorCache::L1& l1, std::vector<const double*>& rows,
    std::vector<std::shared_ptr<const EstimatorCache::Entry>>& refs) const {
  VERITAS_EXPECTS(!observations.empty());
  const std::size_t n_obs = observations.size();
  const std::size_t k = space_.size();
  rows.resize(n_obs);
  refs.clear();
  refs.reserve(n_obs);
  const bool quantized = cache.quantizes();
  l1.sync(cache);
  std::vector<double> y0_row;
  std::vector<double> span_cands;
  std::vector<std::uint8_t> span_gt1;
  if (multi_window_) {
    y0_row.resize(k);
    span_cands.resize(k);
    span_gt1.resize(k);
  }
  ChunkObservation quantized_obs;
  for (std::size_t n = 0; n < n_obs; ++n) {
    const ChunkObservation& obs =
        quantized_view(cache, quantized, observations[n], quantized_obs);
    const EstimatorCache::Key key =
        EstimatorCache::key_of(obs.tcp, obs.size_bytes, emission_table_id_);
    // Every served row is pinned in `refs` — a later put() may displace
    // the L1 slot whose shared_ptr kept the entry alive, and the shared
    // memo may capacity-flush the owning shard, so the per-session pin
    // is what makes the row pointers stable for the recursions.
    if (const std::shared_ptr<const EstimatorCache::Entry>* pinned =
            l1.find(key)) {
      refs.push_back(*pinned);
      rows[n] = refs.back()->mean.data();
      continue;
    }
    if (std::shared_ptr<const EstimatorCache::Entry> entry =
            cache.find(key)) {
      rows[n] = entry->mean.data();
      refs.push_back(entry);
      l1.put(key, std::move(entry));
      continue;
    }
    auto entry = std::make_shared<EstimatorCache::Entry>();
    compute_cache_entry(obs, *entry, y0_row, span_cands, span_gt1);
    rows[n] = entry->mean.data();
    refs.push_back(entry);
    l1.put(key, entry);
    cache.insert(key, std::move(entry));
  }
}

void Ehmm::emission_log_probs_from_means_into(
    std::span<const ChunkObservation> observations, const math::Matrix& means,
    math::Matrix& out) const {
  VERITAS_EXPECTS(!observations.empty());
  const std::size_t n_obs = observations.size();
  const std::size_t k = space_.size();
  VERITAS_EXPECTS(means.rows() == n_obs && means.cols() == k);
  out.resize_padded(n_obs, k, kNegInf);
  // Batched Normal log-density (the body of EmissionModel::
  // log_prob_given_mean), one SIMD-dispatched kernel call per chunk row.
  // The kernel replicates math::log_normal_pdf's operation order, so
  // scalar and vector paths agree bitwise with the per-call composition.
  const KernelOps& ops = math::simd_kernels::active_ops();
  const double sigma = emission_.sigma_mbps();
  const double log_sigma = std::log(sigma);
  const double half_log_2pi = 0.5 * std::log(2.0 * std::numbers::pi);
  const std::size_t stride = out.col_stride();
  for (std::size_t n = 0; n < n_obs; ++n) {
    ops.emission_log_pdf_row(observations[n].throughput_mbps,
                             means.row_data(n), k, stride, sigma, log_sigma,
                             half_log_2pi, out.row_data(n));
  }
}

void Ehmm::emission_log_probs_from_rows_into(
    std::span<const ChunkObservation> observations,
    std::span<const double* const> rows, math::Matrix& out) const {
  VERITAS_EXPECTS(!observations.empty());
  const std::size_t n_obs = observations.size();
  const std::size_t k = space_.size();
  VERITAS_EXPECTS(rows.size() == n_obs);
  out.resize_padded(n_obs, k, kNegInf);
  // Same batched kernel as the matrix overload; the kernel contract only
  // requires k readable doubles per mean row, so the unpadded in-entry
  // rows are fed directly — no densification copy.
  const KernelOps& ops = math::simd_kernels::active_ops();
  const double sigma = emission_.sigma_mbps();
  const double log_sigma = std::log(sigma);
  const double half_log_2pi = 0.5 * std::log(2.0 * std::numbers::pi);
  const std::size_t stride = out.col_stride();
  for (std::size_t n = 0; n < n_obs; ++n) {
    ops.emission_log_pdf_row(observations[n].throughput_mbps, rows[n], k,
                             stride, sigma, log_sigma, half_log_2pi,
                             out.row_data(n));
  }
}

void Ehmm::emission_log_probs_into(
    std::span<const ChunkObservation> observations, math::Matrix& out) const {
  EstimatorCache cache;
  math::Matrix means;
  emission_means_into(observations, means, cache);
  emission_log_probs_from_means_into(observations, means, out);
}

math::Matrix Ehmm::emission_log_probs(
    std::span<const ChunkObservation> observations) const {
  math::Matrix logs;
  emission_log_probs_into(observations, logs);
  return logs;
}

void Ehmm::prepare(std::span<const ChunkObservation> observations,
                   Scratch& scratch) const {
  VERITAS_EXPECTS(!observations.empty());
  if (scratch.estimator_cache == nullptr) {
    // No owner-provided cross-session cache: give the scratch a private
    // one. It persists across this scratch's sessions (superset of the
    // old per-session memo) with memory bounded by the same byte budget
    // every other owner applies (entries derived from k, so large grids
    // don't balloon).
    EstimatorCache::Config config;
    config.capacity = EstimatorCache::entries_for_bytes(
        EstimatorCache::kDefaultByteBudget, space_.size(), multi_window_);
    scratch.estimator_cache = std::make_shared<EstimatorCache>(config);
  }
  // Zero-copy emission phase (PR 7): the L1 front-cache serves repeat
  // tuples without shard locks, and rows are consumed straight out of
  // cache-entry storage — a fully warm session does no row memcpy at
  // all. Bit-identical to the dense emission_means_into pipeline.
  {
    VERITAS_TRACE_SPAN("ehmm.emission_means", "ehmm");
    emission_mean_rows_into(observations, *scratch.estimator_cache,
                            scratch.estimator_l1, scratch.emission_rows,
                            scratch.emission_refs);
  }
  {
    VERITAS_TRACE_SPAN("ehmm.emission_logpdf", "ehmm");
    emission_log_probs_from_rows_into(observations, scratch.emission_rows,
                                      scratch.log_emission);
  }
  window_deltas_into(observations, scratch.deltas);
}

void Ehmm::viterbi_from(std::size_t n_obs, Scratch& scratch,
                        ViterbiResult& result) const {
  VERITAS_TRACE_SPAN("ehmm.viterbi", "ehmm");
  const std::size_t k = space_.size();
  const math::Matrix& log_emission = scratch.log_emission;
  const KernelOps& ops = math::simd_kernels::active_ops();

  result.scores.resize_padded(n_obs, k, kNegInf);
  const std::size_t stride = result.scores.col_stride();
  // back[n * stride + i]: predecessor of the best path reaching (n, i).
  scratch.back.assign(n_obs * stride, 0);

  const auto initial = transition_.initial();
  {
    double* scores0 = result.scores.row_data(0);
    const double* e0 = log_emission.row_data(0);
    for (std::size_t i = 0; i < k; ++i) {
      scores0[i] = safe_log(initial[i]) + e0[i];
    }
  }

  for (std::size_t n = 1; n < n_obs; ++n) {
    ops.viterbi_step(result.scores.row_data(n - 1),
                     transition_.power_view(scratch.deltas[n]), k,
                     log_emission.row_data(n), result.scores.row_data(n),
                     scratch.back.data() + n * stride);
  }

  // Backtrack from the best final state.
  std::size_t state = 0;
  double best_final = kNegInf;
  {
    const double* last = result.scores.row_data(n_obs - 1);
    for (std::size_t i = 0; i < k; ++i) {
      if (last[i] > best_final) {
        best_final = last[i];
        state = i;
      }
    }
  }
  result.log_likelihood = best_final;
  result.states.assign(n_obs, 0);
  for (std::size_t n = n_obs; n-- > 0;) {
    result.states[n] = state;
    if (n > 0) state = scratch.back[n * stride + state];
  }
}

void Ehmm::forward_backward_from(std::size_t n_obs, Scratch& scratch,
                                 ForwardBackwardResult& result) const {
  const std::size_t k = space_.size();
  const math::Matrix& log_emission = scratch.log_emission;
  const KernelOps& ops = math::simd_kernels::active_ops();

  // Row-scaled emissions: em(n, i) = exp(logE(n, i) - rowmax(n)). The
  // per-row constant folds into the forward scaling factors, keeping the
  // recursion in a safe numeric range for arbitrarily unlikely data.
  // Pads are exp(-inf - max) = 0, the sum-product neutral element.
  math::Matrix& em = scratch.em;
  em.resize_padded(n_obs, k, 0.0);
  const std::size_t stride = em.col_stride();
  std::vector<double>& row_max = scratch.row_max;
  math::Matrix& alpha = scratch.alpha;
  std::vector<double>& log_scale = scratch.log_scale;
  std::vector<double>& row = scratch.row;
  {
    // The forward span includes the emission scaling: the scaled matrix
    // exists only to feed this sweep.
    VERITAS_TRACE_SPAN("ehmm.forward", "ehmm");
    row_max.assign(n_obs, kNegInf);
    for (std::size_t n = 0; n < n_obs; ++n) {
      const double* log_row = log_emission.row_data(n);
      double* em_row = em.row_data(n);
      for (std::size_t i = 0; i < k; ++i) {
        row_max[n] = std::max(row_max[n], log_row[i]);
      }
      // Degenerate guard: if every state is impossible, fall back to a
      // flat emission (the posterior then follows the prior).
      if (!std::isfinite(row_max[n])) {
        for (std::size_t i = 0; i < k; ++i) em_row[i] = 1.0;
        row_max[n] = 0.0;
        continue;
      }
      ops.exp_rows(log_row, row_max[n], stride, em_row);
    }

    // Forward pass with per-step normalization.
    alpha.resize_padded(n_obs, k, 0.0);
    log_scale.assign(n_obs, 0.0);
    row.assign(stride, 0.0);
    {
      const auto initial = transition_.initial();
      const double* em0 = em.row_data(0);
      for (std::size_t i = 0; i < k; ++i) row[i] = initial[i] * em0[i];
      const double scale = math::normalize(std::span<double>(row.data(), k));
      log_scale[0] = safe_log(scale) + row_max[0];
      double* alpha0 = alpha.row_data(0);
      for (std::size_t i = 0; i < k; ++i) alpha0[i] = row[i];
    }
    for (std::size_t n = 1; n < n_obs; ++n) {
      ops.forward_step(alpha.row_data(n - 1),
                       transition_.power_view(scratch.deltas[n]), k,
                       em.row_data(n), row.data());
      const double scale = math::normalize(std::span<double>(row.data(), k));
      log_scale[n] = safe_log(scale) + row_max[n];
      double* alpha_n = alpha.row_data(n);
      for (std::size_t i = 0; i < k; ++i) alpha_n[i] = row[i];
    }
  }

  // Backward pass using the same scaling factors, with the
  // pair-posterior normalizers Z_n (paper Eq. 6) fused into the same
  // sweep: the unscaled backward dot against A^Δ is exactly what the
  // pair total folds with alpha, so one stream over the tables yields
  // both. Only the scalar Z_n is kept — the scalar kernel accumulates it
  // in the exact element order the seed used when it materialized xi, so
  // everything reconstructed from it (sampler columns, Baum-Welch
  // counts, pair_posterior) stays bit-identical; the SIMD kernel
  // reassociates the sum across lanes within the tested tolerance.
  math::Matrix& beta = scratch.beta;
  // The backward span includes the pair totals and posterior marginals:
  // both fall out of the same sweep's products.
  VERITAS_TRACE_SPAN("ehmm.backward", "ehmm");
  beta.resize_padded(n_obs, k, 0.0);
  {
    double* beta_last = beta.row_data(n_obs - 1);
    for (std::size_t i = 0; i < k; ++i) beta_last[i] = 1.0;
  }
  result.pair_totals.assign(n_obs - 1, 0.0);
  for (std::size_t n = n_obs - 1; n-- > 0;) {
    // The forward scale at step n+1 was exp(log_scale[n+1]); the scaled
    // beta recursion divides by the same *relative* factor, i.e. the
    // normalizer of the alpha row, so gamma = alpha .* beta normalizes
    // cleanly. Using the raw scale would reintroduce row_max, so divide
    // by the alpha-row normalizer only.
    double scale = std::exp(log_scale[n + 1] - row_max[n + 1]);
    if (scale <= 0.0) scale = 1.0;
    ops.backward_step(transition_.power_view(scratch.deltas[n + 1]), k,
                      em.row_data(n + 1), beta.row_data(n + 1), scale,
                      beta.row_data(n), alpha.row_data(n),
                      &result.pair_totals[n]);
  }

  result.log_likelihood = 0.0;
  for (const double s : log_scale) result.log_likelihood += s;

  // Posterior marginals gamma (unpadded: part of the public result).
  result.gamma.resize(n_obs, k, 0.0);
  for (std::size_t n = 0; n < n_obs; ++n) {
    const double* alpha_n = alpha.row_data(n);
    const double* beta_n = beta.row_data(n);
    double* gamma_n = result.gamma.row_data(n);
    for (std::size_t i = 0; i < k; ++i) gamma_n[i] = alpha_n[i] * beta_n[i];
    math::normalize(std::span<double>(gamma_n, k));
  }
}

math::Matrix Ehmm::pair_posterior(const ForwardBackwardResult& fb,
                                  const Scratch& scratch,
                                  std::size_t n) const {
  const std::size_t k = space_.size();
  VERITAS_EXPECTS(n < fb.pair_totals.size());
  VERITAS_EXPECTS(scratch.alpha.rows() == fb.gamma.rows());
  const math::Matrix& a_delta = transition_.power(scratch.deltas[n + 1]);
  const double* alpha_n = scratch.alpha.row_data(n);
  const double* em_next = scratch.em.row_data(n + 1);
  const double* beta_next = scratch.beta.row_data(n + 1);
  const double total = fb.pair_totals[n];
  math::Matrix pair(k, k, 0.0);
  if (total > 0.0) {
    for (std::size_t i = 0; i < k; ++i) {
      const double* a_row = a_delta.row_data(i);
      double* pair_row = pair.row_data(i);
      for (std::size_t j = 0; j < k; ++j) {
        pair_row[j] =
            alpha_n[i] * a_row[j] * em_next[j] * beta_next[j] / total;
      }
    }
  } else {
    // Degenerate: independent marginals (the seed's fallback).
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < k; ++j) {
        pair(i, j) = fb.gamma(n, i) * fb.gamma(n + 1, j);
      }
    }
  }
  return pair;
}

std::vector<std::size_t> Ehmm::sample_posterior(
    const ViterbiResult& viterbi, const ForwardBackwardResult& fb,
    const Scratch& scratch, util::Rng& rng,
    const SamplerConfig& config) const {
  const std::size_t n_obs = viterbi.states.size();
  VERITAS_EXPECTS(n_obs >= 1);
  VERITAS_EXPECTS(fb.pair_totals.size() + 1 == n_obs);
  VERITAS_EXPECTS(fb.gamma.rows() == n_obs);
  VERITAS_EXPECTS(scratch.alpha.rows() == n_obs);
  const std::size_t k = fb.gamma.cols();

  std::vector<std::size_t> states(n_obs, 0);
  switch (config.last_state) {
    case SamplerConfig::LastState::kViterbi:
      states[n_obs - 1] = viterbi.states[n_obs - 1];
      break;
    case SamplerConfig::LastState::kPosterior:
      states[n_obs - 1] = rng.categorical(fb.gamma.row(n_obs - 1));
      break;
  }

  // Backward sampling through the pair posterior Γ: the needed column
  // Γ(·, next, n) is rebuilt from one alpha row, one A^Δ column and two
  // scalars — the same values the seed read out of its materialized xi.
  std::vector<double> weights(k, 0.0);
  for (std::size_t n = n_obs - 1; n-- > 0;) {
    const std::size_t next = states[n + 1];
    const double total_n = fb.pair_totals[n];
    double total = 0.0;
    if (total_n > 0.0) {
      const DeltaTables a = transition_.power_view(scratch.deltas[n + 1]);
      const double* a_col = a.t + next * a.stride;
      const double* alpha_n = scratch.alpha.row_data(n);
      const double em_next = scratch.em(n + 1, next);
      const double beta_next = scratch.beta(n + 1, next);
      for (std::size_t i = 0; i < k; ++i) {
        weights[i] = alpha_n[i] * a_col[i] * em_next * beta_next / total_n;
        total += weights[i];
      }
    } else {
      // Degenerate pair: independent marginals.
      for (std::size_t i = 0; i < k; ++i) {
        weights[i] = fb.gamma(n, i) * fb.gamma(n + 1, next);
        total += weights[i];
      }
    }
    if (total <= 0.0) {
      // Degenerate column (the pinned next state has zero pair mass,
      // possible when the Viterbi path disagrees with smoothing tails):
      // fall back to the smoothed marginal at n.
      for (std::size_t i = 0; i < k; ++i) {
        weights[i] = fb.gamma(n, i);
      }
    }
    states[n] = rng.categorical(weights);
  }
  return states;
}

Ehmm::ViterbiResult Ehmm::viterbi(
    std::span<const ChunkObservation> observations, Scratch& scratch) const {
  prepare(observations, scratch);
  ViterbiResult result;
  viterbi_from(observations.size(), scratch, result);
  return result;
}

Ehmm::ViterbiResult Ehmm::viterbi(
    std::span<const ChunkObservation> observations) const {
  Scratch scratch;
  return viterbi(observations, scratch);
}

Ehmm::ForwardBackwardResult Ehmm::forward_backward(
    std::span<const ChunkObservation> observations, Scratch& scratch) const {
  prepare(observations, scratch);
  ForwardBackwardResult result;
  forward_backward_from(observations.size(), scratch, result);
  return result;
}

Ehmm::ForwardBackwardResult Ehmm::forward_backward(
    std::span<const ChunkObservation> observations) const {
  Scratch scratch;
  return forward_backward(observations, scratch);
}

Ehmm::ForwardBackwardResult Ehmm::forward_backward_from_means(
    std::span<const ChunkObservation> observations, const math::Matrix& means,
    Scratch& scratch) const {
  VERITAS_EXPECTS(!observations.empty());
  emission_log_probs_from_means_into(observations, means,
                                     scratch.log_emission);
  window_deltas_into(observations, scratch.deltas);
  ForwardBackwardResult result;
  forward_backward_from(observations.size(), scratch, result);
  return result;
}

Ehmm::InferencePass Ehmm::infer_fused(
    std::span<const ChunkObservation> observations, Scratch& scratch) const {
  prepare(observations, scratch);
  InferencePass pass;
  viterbi_from(observations.size(), scratch, pass.viterbi);
  forward_backward_from(observations.size(), scratch, pass.forward_backward);
  return pass;
}

}  // namespace veritas::core
