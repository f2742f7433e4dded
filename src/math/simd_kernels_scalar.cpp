// Reference kernel table + runtime dispatch. Compiled with baseline
// flags: these loops are the pre-SIMD EHMM inner loops, moved behind the
// KernelOps interface verbatim — per-element operation order is
// unchanged, so a VERITAS_SIMD=OFF build (or a forced-scalar run) remains
// bit-identical to the historical implementation.
#include "math/simd_kernels.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace veritas::math::simd_kernels {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

void emission_log_pdf_row_scalar(double y, const double* means,
                                 std::size_t k, std::size_t stride,
                                 double sigma, double log_sigma,
                                 double half_log_2pi, double* out) {
  for (std::size_t i = 0; i < k; ++i) {
    const double z = (y - means[i]) / sigma;
    out[i] = -0.5 * z * z - log_sigma - half_log_2pi;
  }
  for (std::size_t i = k; i < stride; ++i) out[i] = kNegInf;
}

void exp_rows_scalar(const double* in, double shift, std::size_t n,
                     double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = std::exp(in[i] - shift);
}

void log_rows_scalar(const double* in, std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = std::log(in[i]);
}

void viterbi_step_scalar(const double* prev, const DeltaTables& a,
                         std::size_t k, const double* e_n, double* curr,
                         std::uint32_t* back) {
  for (std::size_t i = 0; i < k; ++i) {
    double best = kNegInf;
    std::size_t best_prev = 0;
    const double* log_a = a.log_t + i * a.stride;
    for (std::size_t j = 0; j < k; ++j) {
      const double candidate = prev[j] + log_a[j];
      if (candidate > best) {
        best = candidate;
        best_prev = j;
      }
    }
    curr[i] = best + e_n[i];
    back[i] = static_cast<std::uint32_t>(best_prev);
  }
}

void forward_step_scalar(const double* prev, const DeltaTables& a,
                         std::size_t k, const double* em_n, double* row) {
  for (std::size_t i = 0; i < k; ++i) {
    double acc = 0.0;
    const double* a_col = a.t + i * a.stride;
    for (std::size_t j = 0; j < k; ++j) acc += prev[j] * a_col[j];
    row[i] = acc * em_n[i];
  }
}

void backward_step_scalar(const DeltaTables& a, std::size_t k,
                          const double* em_next, const double* beta_next,
                          double scale, double* beta_n, const double* alpha_n,
                          double* pair_total) {
  // Fused pair-normalizer: same term expression and i-major j-minor
  // order as the historical standalone pair pass — bit-identical to it —
  // but computed in the same sweep over A^Δ as the beta recursion.
  double total = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    double acc = 0.0;
    const double* a_row = a.p + i * a.stride;
    const double alpha_i = alpha_n[i];
    for (std::size_t j = 0; j < k; ++j) {
      acc += a_row[j] * em_next[j] * beta_next[j];
      total += alpha_i * a_row[j] * em_next[j] * beta_next[j];
    }
    beta_n[i] = acc / scale;
  }
  *pair_total = total;
}

constexpr KernelOps kScalarOps = {
    "scalar",
    kCpuBaseline,
    &emission_log_pdf_row_scalar,
    &exp_rows_scalar,
    &log_rows_scalar,
    &viterbi_step_scalar,
    &forward_step_scalar,
    &backward_step_scalar,
    // estimate_batch: null — the scalar reference for a batch is the
    // per-candidate loop over net::estimate_throughput_mbps, run by
    // net::estimate_throughput_batch itself (see KernelOps doc).
    nullptr,
};

// ---------------------------------------------------------------- dispatch

bool cpu_supports(unsigned features) {
  if (features & kCpuAvx2) {
#if defined(__x86_64__) || defined(__i386__)
    if (__builtin_cpu_supports("avx2") == 0) return false;
#else
    return false;
#endif
  }
  return true;
}

bool env_forces_scalar() {
  const char* value = std::getenv("VERITAS_SIMD");
  if (value == nullptr) return false;
  return std::strcmp(value, "0") == 0 || std::strcmp(value, "off") == 0 ||
         std::strcmp(value, "OFF") == 0 || std::strcmp(value, "scalar") == 0;
}

const KernelOps* resolve_table(const KernelOps* table) {
  if (table == nullptr || !cpu_supports(table->cpu_features)) return nullptr;
  return table;
}

std::atomic<Mode> g_mode{Mode::kAuto};

}  // namespace

const KernelOps& scalar_ops() { return kScalarOps; }

const KernelOps* simd_ops() {
  static const KernelOps* const table =
      resolve_table(detail::compiled_simd_table);
  return table;
}

Mode mode() noexcept { return g_mode.load(std::memory_order_relaxed); }
void set_mode(Mode m) noexcept {
  g_mode.store(m, std::memory_order_relaxed);
}

const KernelOps& active_ops() {
  switch (mode()) {
    case Mode::kForceScalar:
      return kScalarOps;
    case Mode::kForceSimd: {
      const KernelOps* simd = simd_ops();
      return simd != nullptr ? *simd : kScalarOps;
    }
    case Mode::kAuto:
      break;
  }
  static const bool env_scalar = env_forces_scalar();
  if (env_scalar) return kScalarOps;
  const KernelOps* simd = simd_ops();
  return simd != nullptr ? *simd : kScalarOps;
}

const char* backend_name() { return active_ops().name; }

}  // namespace veritas::math::simd_kernels
