// Runtime-dispatched kernel table for the EHMM hot loops.
//
// Two implementations of the same KernelOps interface ship in every
// binary:
//
//   * scalar_ops() — the reference loops, compiled with baseline flags in
//     math/simd_kernels_scalar.cpp. Bit-identical to the pre-SIMD
//     implementations: per-element operation order is preserved exactly.
//   * simd_ops()  — vectorized over the *state* (output) dimension with
//     the lane layer in math/simd.hpp, compiled in
//     math/simd_kernels_simd.cpp with the best *bit-exact* ISA the
//     compiler supports (-mavx2 on x86 when available, NEON on AArch64).
//     nullptr when the build disabled SIMD (-DVERITAS_SIMD=OFF) or the
//     running CPU lacks the compiled ISA (checked once via cpuid).
//
// Every EHMM recursion step runs through exactly one of these tables —
// there is no other code path, whatever the gap Δ between chunks.
// Because the SIMD recursions vectorize across outputs and broadcast the
// sequential input, each output's accumulation order matches the scalar
// loop and the viterbi/forward/backward kernels are bit-identical to
// scalar_ops(). Only exp_rows/log_rows (polynomial approximations,
// ~2 ulp) and backward_step's fused pair total (lane-reassociated global
// sum) differ, within the tolerances tested in
// tests/core/kernel_equivalence_test.cpp.
//
// Dispatch: active_ops() resolves simd_ops() when available, unless the
// process-global mode (set_mode / ScopedMode, used by tests and benches)
// or the VERITAS_SIMD environment variable ("off" / "scalar" / "0")
// forces the scalar table.
#pragma once

#include <cstddef>
#include <cstdint>

namespace veritas::math::simd_kernels {

/// CPU feature bits a kernel table needs at run time.
inline constexpr unsigned kCpuBaseline = 0;
inline constexpr unsigned kCpuAvx2 = 1u << 0;

/// Padded row-major views of one transition power A^Δ (see
/// core/transition_model.hpp). All four tables share `stride`, a multiple
/// of math::kRowPadDoubles; pad columns hold 0 in p/t and -inf in the log
/// tables, so full-lane loads read neutral elements.
struct DeltaTables {
  const double* p = nullptr;      ///< row j: A^Δ(j, ·)
  const double* t = nullptr;      ///< row i: A^Δ(·, i) (transposed)
  const double* log_p = nullptr;  ///< elementwise log of p
  const double* log_t = nullptr;  ///< elementwise log of t
  std::size_t stride = 0;
};

/// Inputs of one batched TCP-estimator call (paper Algorithm 4, the
/// emission kernel f): the post-slow-start-restart connection snapshot
/// plus the TcpConfig fields the window-growth law reads, flattened to
/// plain doubles so the kernel layer stays free of net types. Filled by
/// net::estimate_throughput_batch, which owns the SSR application and
/// the candidate-independent precomputation.
struct TcpBatchParams {
  double cwnd0 = 0.0;      ///< post-SSR congestion window (segments)
  double ssthresh = 0.0;   ///< post-SSR slow-start threshold (segments)
  double min_rtt_s = 0.0;  ///< path minimum RTT
  double mss_bytes = 0.0;
  double rwnd_segments = 0.0;      ///< receive-window clamp on cwnd
  double init_cwnd = 0.0;          ///< BBR growth-law floor
  double hystart_bdp_fraction = 0.0;
  double data_segments = 0.0;      ///< ceil(size_bytes / mss_bytes)
  double size_bytes = 0.0;
  bool bbr = false;      ///< kBbrLike growth law (else cubic-like)
  bool hystart = false;  ///< delay-based slow-start exit enabled
};

/// One table of kernel entry points. All row pointers refer to padded
/// rows (stride multiple of math::kRowPadDoubles) unless noted.
struct KernelOps {
  const char* name = "";  ///< "scalar", "avx2", "sse2", "neon"
  unsigned cpu_features = kCpuBaseline;

  /// Batched emission log-density: out[i] = log Normal(y; means[i], σ)
  /// for i < k, computed as -0.5 z² - log σ - 0.5 log 2π with z =
  /// (y - means[i]) / σ — the exact operation order of
  /// math::log_normal_pdf, so scalar and SIMD agree bitwise. Pads
  /// out[k..stride) with -inf. `means` only needs k readable entries.
  void (*emission_log_pdf_row)(double y, const double* means, std::size_t k,
                               std::size_t stride, double sigma,
                               double log_sigma, double half_log_2pi,
                               double* out);

  /// out[i] = exp(in[i] - shift) for i < n (any n; the hot path passes a
  /// full padded stride). SIMD uses the vexp approximation.
  void (*exp_rows)(const double* in, double shift, std::size_t n,
                   double* out);

  /// out[i] = log(in[i]) for i < n, std::log semantics (0 → -inf,
  /// negative → NaN). SIMD uses the vlog approximation.
  void (*log_rows)(const double* in, std::size_t n, double* out);

  /// One max-plus Viterbi step: for each state i < k,
  ///   curr[i] = max_j (prev[j] + log A^Δ(j, i)) + e_n[i]
  /// with back[i] = the smallest argmax j (first-strictly-greater update
  /// rule). prev/e_n/curr/back are padded rows; pads of curr end up -inf.
  /// Bit-identical between scalar and SIMD tables.
  void (*viterbi_step)(const double* prev, const DeltaTables& a,
                       std::size_t k, const double* e_n, double* curr,
                       std::uint32_t* back);

  /// One sum-product forward step: row[i] = (Σ_j prev[j] A^Δ(j, i)) ·
  /// em_n[i], accumulated in ascending j per output. Bit-identical
  /// between scalar and SIMD tables. Pads of row end up 0.
  void (*forward_step)(const double* prev, const DeltaTables& a,
                       std::size_t k, const double* em_n, double* row);

  /// One backward step: beta_n[i] = (Σ_j A^Δ(i, j) em_next[j]
  /// beta_next[j]) / scale, per-term order ((a·em)·beta), ascending j.
  /// Bit-identical between scalar and SIMD tables. Pads end up 0.
  /// Also writes the pair posterior normalizer Σ_{i,j} alpha_n[i]
  /// A^Δ(i,j) em_next[j] beta_next[j] to *pair_total from the same sweep
  /// (the unscaled backward dot reused — one stream over A^Δ instead of
  /// two). The scalar table keeps the historical i-major j-minor term
  /// order; the SIMD table reassociates the sum across lanes (ulp-level
  /// difference). alpha_n and pair_total must be non-null.
  void (*backward_step)(const DeltaTables& a, std::size_t k,
                        const double* em_next, const double* beta_next,
                        double scale, double* beta_n, const double* alpha_n,
                        double* pair_total);

  /// Batched TCP throughput estimator f across the candidate dimension:
  /// out[i] = f(candidates[i], W, S) for i < k, *bit-identical* to k
  /// scalar net::estimate_throughput_mbps calls on the pre-SSR state —
  /// the vector table evolves the TCP window in struct-of-arrays form
  /// across candidate lanes, replaying each lane's scalar operation
  /// order exactly (IEEE-exact lane arithmetic; the round count is an
  /// integer, so jumped phases only need the same count, enforced by the
  /// same rounding-slack guards as net::detail::count_rounds).
  ///
  /// Null in the scalar table: the scalar reference for a batch *is* the
  /// per-candidate composition, and net::estimate_throughput_batch runs
  /// that loop itself whenever this entry is null — so a forced-scalar
  /// or VERITAS_SIMD=OFF run takes literally the historical code path.
  /// `candidates` and `out` need only k valid entries (no padding).
  void (*estimate_batch)(const double* candidates, std::size_t k,
                         const TcpBatchParams& p, double* out);
};

/// The reference table (always available).
const KernelOps& scalar_ops();

/// The vectorized table, or nullptr when SIMD is compiled out or the CPU
/// lacks the compiled ISA. Stable for the process lifetime.
const KernelOps* simd_ops();

/// The table the EHMM should use right now (mode / env / CPU resolved).
const KernelOps& active_ops();

/// Name of the table active_ops() currently returns — the *resolved*
/// kernel tier ("scalar" / "sse2" / "neon" / "avx2"), not the
/// compile switch; serve/bench output records this.
const char* backend_name();

enum class Mode {
  kAuto,          ///< simd when available (default; env var may veto)
  kForceScalar,   ///< reference loops regardless of CPU
  kForceSimd,     ///< simd_ops() even if env said off (no-op when null)
};
Mode mode() noexcept;
void set_mode(Mode m) noexcept;

/// RAII mode override for tests and benchmarks.
class ScopedMode {
 public:
  explicit ScopedMode(Mode m) : saved_(mode()) { set_mode(m); }
  ~ScopedMode() { set_mode(saved_); }
  ScopedMode(const ScopedMode&) = delete;
  ScopedMode& operator=(const ScopedMode&) = delete;

 private:
  Mode saved_;
};

namespace detail {
/// Defined in math/simd_kernels_simd.cpp: the compiled vector table, or
/// nullptr when VERITAS_SIMD_DISABLED. Constant-initialized data — safe
/// to read on any CPU (the dispatcher checks cpu_features before use).
extern const KernelOps* const compiled_simd_table;
}  // namespace detail

}  // namespace veritas::math::simd_kernels
