// Portable SIMD lane layer for the EHMM hot kernels.
//
// One backend is selected *per translation unit* at compile time:
//
//   AVX2 (4 x double)  when the TU is compiled with -mavx2 (__AVX2__)
//   SSE2 (2 x double)  on x86-64 baseline (__SSE2__)
//   NEON (2 x double)  on AArch64 (__ARM_NEON with 64-bit FP lanes)
//   scalar (1 lane)    everywhere else, or under VERITAS_SIMD_FORCE_SCALAR
//
// Every function here is `static inline`: the definitions legitimately
// differ between TUs compiled with different ISA flags, so they must have
// internal linkage (an `inline` function with divergent definitions would
// be an ODR violation). Do not take their address across TU boundaries;
// export a table of wrapper functions instead (see math/simd_kernels.*).
//
// Arithmetic lane ops (vadd/vsub/vmul/vdiv/vmax, and vmuladd, which is
// the two-rounding mul-then-add) are IEEE-754 exact per lane — a
// vectorized loop that preserves the scalar per-element operation order
// is bit-identical to the scalar loop. No backend fuses a multiply-add.
// Every lane width (1, 2 or 4) divides math::kRowPadDoubles, so padded
// rows are always whole lane blocks and there are no partial-lane loads
// or stores. The transcendental approximations vexp/vlog are
// Cephes-style rational polynomials accurate to a couple of ulp; they are
// property-tested against libm in tests/math/simd_test.cpp and their
// consumers are covered by the SIMD/scalar equivalence suites.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstddef>
#include <limits>

#if !defined(VERITAS_SIMD_FORCE_SCALAR) && \
    (defined(__AVX2__) || defined(__SSE2__) || defined(__x86_64__))
#include <immintrin.h>
#endif
#if !defined(VERITAS_SIMD_FORCE_SCALAR) && defined(__aarch64__) && \
    defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace veritas::math::simd {

// ----------------------------------------------------------------- AVX2
#if !defined(VERITAS_SIMD_FORCE_SCALAR) && defined(__AVX2__)
#define VERITAS_SIMD_BACKEND_NAME "avx2"
#define VERITAS_SIMD_BACKEND_AVX2 1

using VecD = __m256d;
constexpr std::size_t kLanes = 4;

static inline VecD vload(const double* p) { return _mm256_loadu_pd(p); }
static inline void vstore(double* p, VecD v) { _mm256_storeu_pd(p, v); }
static inline VecD vset1(double x) { return _mm256_set1_pd(x); }
static inline VecD vzero() { return _mm256_setzero_pd(); }
static inline VecD vadd(VecD a, VecD b) { return _mm256_add_pd(a, b); }
static inline VecD vsub(VecD a, VecD b) { return _mm256_sub_pd(a, b); }
static inline VecD vmul(VecD a, VecD b) { return _mm256_mul_pd(a, b); }
static inline VecD vdiv(VecD a, VecD b) { return _mm256_div_pd(a, b); }
static inline VecD vmax(VecD a, VecD b) { return _mm256_max_pd(a, b); }
/// min per lane. For equal-valued non-zero operands both choices carry
/// the same bits; which ±0 is returned is unspecified (no caller feeds
/// signed zeros).
static inline VecD vmin(VecD a, VecD b) { return _mm256_min_pd(a, b); }
/// Ordered quiet compares: NaN operands compare false, matching scalar
/// `<` / `>`.
static inline VecD vgt(VecD a, VecD b) {
  return _mm256_cmp_pd(a, b, _CMP_GT_OQ);
}
static inline VecD vlt(VecD a, VecD b) {
  return _mm256_cmp_pd(a, b, _CMP_LT_OQ);
}
static inline VecD veq(VecD a, VecD b) {
  return _mm256_cmp_pd(a, b, _CMP_EQ_OQ);
}
static inline VecD vge(VecD a, VecD b) {
  return _mm256_cmp_pd(a, b, _CMP_GE_OQ);
}
/// Mask combinators. Defined on compare results (all-ones / all-zero
/// lanes in the vector backends, 1.0 / 0.0 in the scalar backend); do
/// not feed arithmetic values.
static inline VecD vand(VecD a, VecD b) { return _mm256_and_pd(a, b); }
static inline VecD vor(VecD a, VecD b) { return _mm256_or_pd(a, b); }
/// (~a) & b — clears b's lanes where mask a is set.
static inline VecD vandnot(VecD a, VecD b) { return _mm256_andnot_pd(a, b); }
/// True when any lane of a mask is set.
static inline bool vany(VecD mask) {
  return _mm256_movemask_pd(mask) != 0;
}
/// True (all-ones) where a is NaN.
static inline VecD visnan(VecD a) {
  return _mm256_cmp_pd(a, a, _CMP_NEQ_UQ);
}
/// b where mask is set, else a.
static inline VecD vblend(VecD a, VecD b, VecD mask) {
  return _mm256_blendv_pd(a, b, mask);
}
/// Round to nearest integer-valued double (ties to even).
static inline VecD vnearbyint(VecD x) {
  return _mm256_round_pd(x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
}
/// 2^n for integer-valued n in [-1074, 1024); out of range yields
/// unspecified bits (callers blend the result away).
static inline VecD vpow2i(VecD n) {
  const __m128i n32 = _mm256_cvtpd_epi32(n);
  const __m256i n64 = _mm256_cvtepi32_epi64(n32);
  const __m256i bits = _mm256_slli_epi64(
      _mm256_add_epi64(n64, _mm256_set1_epi64x(1023)), 52);
  return _mm256_castsi256_pd(bits);
}
/// frexp for positive normal x: returns mantissa in [0.5, 1), writes the
/// exponent (as integer-valued doubles) to *e. Non-normal inputs produce
/// unspecified values that callers must blend away.
static inline VecD vfrexp(VecD x, VecD* e) {
  const __m256i u = _mm256_castpd_si256(x);
  const __m256i biased =
      _mm256_and_si256(_mm256_srli_epi64(u, 52), _mm256_set1_epi64x(0x7ff));
  // u64 < 2^52 -> double via the 2^52 bit trick.
  const __m256d magic = _mm256_set1_pd(0x1p52);
  const __m256d biased_d = _mm256_sub_pd(
      _mm256_castsi256_pd(
          _mm256_or_si256(biased, _mm256_castpd_si256(magic))),
      magic);
  *e = _mm256_sub_pd(biased_d, _mm256_set1_pd(1022.0));
  const __m256i mant = _mm256_or_si256(
      _mm256_and_si256(u, _mm256_set1_epi64x(0x000FFFFFFFFFFFFFll)),
      _mm256_castpd_si256(_mm256_set1_pd(0.5)));
  return _mm256_castsi256_pd(mant);
}
static inline VecD vfloor(VecD x) { return _mm256_floor_pd(x); }
static inline VecD vceil(VecD x) { return _mm256_ceil_pd(x); }
static inline VecD vsqrt(VecD x) { return _mm256_sqrt_pd(x); }

// ----------------------------------------------------------------- SSE2
#elif !defined(VERITAS_SIMD_FORCE_SCALAR) && \
    (defined(__SSE2__) || defined(__x86_64__))
#define VERITAS_SIMD_BACKEND_NAME "sse2"

using VecD = __m128d;
constexpr std::size_t kLanes = 2;

static inline VecD vload(const double* p) { return _mm_loadu_pd(p); }
static inline void vstore(double* p, VecD v) { _mm_storeu_pd(p, v); }
static inline VecD vset1(double x) { return _mm_set1_pd(x); }
static inline VecD vzero() { return _mm_setzero_pd(); }
static inline VecD vadd(VecD a, VecD b) { return _mm_add_pd(a, b); }
static inline VecD vsub(VecD a, VecD b) { return _mm_sub_pd(a, b); }
static inline VecD vmul(VecD a, VecD b) { return _mm_mul_pd(a, b); }
static inline VecD vdiv(VecD a, VecD b) { return _mm_div_pd(a, b); }
static inline VecD vmax(VecD a, VecD b) { return _mm_max_pd(a, b); }
static inline VecD vmin(VecD a, VecD b) { return _mm_min_pd(a, b); }
static inline VecD vgt(VecD a, VecD b) { return _mm_cmpgt_pd(a, b); }
static inline VecD vlt(VecD a, VecD b) { return _mm_cmplt_pd(a, b); }
static inline VecD veq(VecD a, VecD b) { return _mm_cmpeq_pd(a, b); }
static inline VecD vge(VecD a, VecD b) { return _mm_cmpge_pd(a, b); }
static inline VecD visnan(VecD a) { return _mm_cmpneq_pd(a, a); }
static inline VecD vand(VecD a, VecD b) { return _mm_and_pd(a, b); }
static inline VecD vor(VecD a, VecD b) { return _mm_or_pd(a, b); }
static inline VecD vandnot(VecD a, VecD b) { return _mm_andnot_pd(a, b); }
static inline bool vany(VecD mask) { return _mm_movemask_pd(mask) != 0; }
static inline VecD vblend(VecD a, VecD b, VecD mask) {
  // SSE2 has no blendv: masks from cmp are all-ones/all-zero lanes.
  return _mm_or_pd(_mm_and_pd(mask, b), _mm_andnot_pd(mask, a));
}
static inline VecD vnearbyint(VecD x) {
  // cvtpd_epi32 rounds to nearest (even); |x| stays far below 2^31 in
  // every caller (exp exponents).
  return _mm_cvtepi32_pd(_mm_cvtpd_epi32(x));
}
static inline VecD vpow2i(VecD n) {
  const __m128i n32 = _mm_cvtpd_epi32(n);  // [n0, n1, 0, 0]
  const __m128i sign = _mm_srai_epi32(n32, 31);
  const __m128i n64 = _mm_unpacklo_epi32(n32, sign);  // sign-extended
  const __m128i bits =
      _mm_slli_epi64(_mm_add_epi64(n64, _mm_set1_epi64x(1023)), 52);
  return _mm_castsi128_pd(bits);
}
static inline VecD vfrexp(VecD x, VecD* e) {
  const __m128i u = _mm_castpd_si128(x);
  const __m128i biased =
      _mm_and_si128(_mm_srli_epi64(u, 52), _mm_set1_epi64x(0x7ff));
  const __m128d magic = _mm_set1_pd(0x1p52);
  const __m128d biased_d = _mm_sub_pd(
      _mm_castsi128_pd(_mm_or_si128(biased, _mm_castpd_si128(magic))),
      magic);
  *e = _mm_sub_pd(biased_d, _mm_set1_pd(1022.0));
  const __m128i mant = _mm_or_si128(
      _mm_and_si128(u, _mm_set1_epi64x(0x000FFFFFFFFFFFFFll)),
      _mm_castpd_si128(_mm_set1_pd(0.5)));
  return _mm_castsi128_pd(mant);
}
/// floor/ceil via the round-to-nearest convert plus a ±1 correction
/// (SSE2 has no roundpd). Valid for |x| < 2^31 — every caller is either
/// exponent-sized (vexp) or pre-guarded below 2^26 by the estimator's
/// coarse-grid checks; out-of-domain lanes yield unspecified values that
/// callers blend away.
static inline VecD vfloor(VecD x) {
  const VecD r = _mm_cvtepi32_pd(_mm_cvtpd_epi32(x));
  return _mm_sub_pd(r, _mm_and_pd(_mm_cmpgt_pd(r, x), _mm_set1_pd(1.0)));
}
static inline VecD vceil(VecD x) {
  const VecD r = _mm_cvtepi32_pd(_mm_cvtpd_epi32(x));
  return _mm_add_pd(r, _mm_and_pd(_mm_cmplt_pd(r, x), _mm_set1_pd(1.0)));
}
static inline VecD vsqrt(VecD x) { return _mm_sqrt_pd(x); }

// ----------------------------------------------------------------- NEON
#elif !defined(VERITAS_SIMD_FORCE_SCALAR) && defined(__aarch64__) && \
    defined(__ARM_NEON)
#define VERITAS_SIMD_BACKEND_NAME "neon"

using VecD = float64x2_t;
constexpr std::size_t kLanes = 2;

static inline VecD vload(const double* p) { return vld1q_f64(p); }
static inline void vstore(double* p, VecD v) { vst1q_f64(p, v); }
static inline VecD vset1(double x) { return vdupq_n_f64(x); }
static inline VecD vzero() { return vdupq_n_f64(0.0); }
static inline VecD vadd(VecD a, VecD b) { return vaddq_f64(a, b); }
static inline VecD vsub(VecD a, VecD b) { return vsubq_f64(a, b); }
static inline VecD vmul(VecD a, VecD b) { return vmulq_f64(a, b); }
static inline VecD vdiv(VecD a, VecD b) { return vdivq_f64(a, b); }
static inline VecD vmax(VecD a, VecD b) { return vmaxnmq_f64(a, b); }
static inline VecD vmin(VecD a, VecD b) { return vminnmq_f64(a, b); }
static inline VecD vgt(VecD a, VecD b) {
  return vreinterpretq_f64_u64(vcgtq_f64(a, b));
}
static inline VecD vlt(VecD a, VecD b) {
  return vreinterpretq_f64_u64(vcltq_f64(a, b));
}
static inline VecD veq(VecD a, VecD b) {
  return vreinterpretq_f64_u64(vceqq_f64(a, b));
}
static inline VecD vge(VecD a, VecD b) {
  return vreinterpretq_f64_u64(vcgeq_f64(a, b));
}
static inline VecD visnan(VecD a) {
  return vreinterpretq_f64_u64(
      veorq_u64(vceqq_f64(a, a), vdupq_n_u64(~0ull)));
}
static inline VecD vand(VecD a, VecD b) {
  return vreinterpretq_f64_u64(
      vandq_u64(vreinterpretq_u64_f64(a), vreinterpretq_u64_f64(b)));
}
static inline VecD vor(VecD a, VecD b) {
  return vreinterpretq_f64_u64(
      vorrq_u64(vreinterpretq_u64_f64(a), vreinterpretq_u64_f64(b)));
}
static inline VecD vandnot(VecD a, VecD b) {
  return vreinterpretq_f64_u64(
      vbicq_u64(vreinterpretq_u64_f64(b), vreinterpretq_u64_f64(a)));
}
static inline bool vany(VecD mask) {
  const uint64x2_t u = vreinterpretq_u64_f64(mask);
  return (vgetq_lane_u64(u, 0) | vgetq_lane_u64(u, 1)) != 0;
}
static inline VecD vblend(VecD a, VecD b, VecD mask) {
  return vbslq_f64(vreinterpretq_u64_f64(mask), b, a);
}
static inline VecD vnearbyint(VecD x) { return vrndnq_f64(x); }
static inline VecD vpow2i(VecD n) {
  const int64x2_t n64 = vcvtq_s64_f64(n);  // n is integer-valued
  const uint64x2_t bits = vshlq_n_u64(
      vreinterpretq_u64_s64(vaddq_s64(n64, vdupq_n_s64(1023))), 52);
  return vreinterpretq_f64_u64(bits);
}
static inline VecD vfrexp(VecD x, VecD* e) {
  const uint64x2_t u = vreinterpretq_u64_f64(x);
  const uint64x2_t biased =
      vandq_u64(vshrq_n_u64(u, 52), vdupq_n_u64(0x7ff));
  *e = vsubq_f64(vcvtq_f64_u64(biased), vdupq_n_f64(1022.0));
  const uint64x2_t mant =
      vorrq_u64(vandq_u64(u, vdupq_n_u64(0x000FFFFFFFFFFFFFull)),
                vreinterpretq_u64_f64(vdupq_n_f64(0.5)));
  return vreinterpretq_f64_u64(mant);
}
static inline VecD vfloor(VecD x) { return vrndmq_f64(x); }
static inline VecD vceil(VecD x) { return vrndpq_f64(x); }
static inline VecD vsqrt(VecD x) { return vsqrtq_f64(x); }

// --------------------------------------------------------------- scalar
#else
#define VERITAS_SIMD_BACKEND_NAME "scalar"

using VecD = double;
constexpr std::size_t kLanes = 1;

static inline VecD vload(const double* p) { return *p; }
static inline void vstore(double* p, VecD v) { *p = v; }
static inline VecD vset1(double x) { return x; }
static inline VecD vzero() { return 0.0; }
static inline VecD vadd(VecD a, VecD b) { return a + b; }
static inline VecD vsub(VecD a, VecD b) { return a - b; }
static inline VecD vmul(VecD a, VecD b) { return a * b; }
static inline VecD vdiv(VecD a, VecD b) { return a / b; }
static inline VecD vmax(VecD a, VecD b) { return a > b ? a : b; }
static inline VecD vmin(VecD a, VecD b) { return b < a ? b : a; }
// Masks are 1.0 (true) / 0.0 (false) in the scalar backend.
static inline VecD vgt(VecD a, VecD b) { return a > b ? 1.0 : 0.0; }
static inline VecD vlt(VecD a, VecD b) { return a < b ? 1.0 : 0.0; }
static inline VecD veq(VecD a, VecD b) { return a == b ? 1.0 : 0.0; }
static inline VecD vge(VecD a, VecD b) { return a >= b ? 1.0 : 0.0; }
static inline VecD visnan(VecD a) { return a != a ? 1.0 : 0.0; }
static inline VecD vand(VecD a, VecD b) {
  return (a != 0.0 && b != 0.0) ? 1.0 : 0.0;
}
static inline VecD vor(VecD a, VecD b) {
  return (a != 0.0 || b != 0.0) ? 1.0 : 0.0;
}
static inline VecD vandnot(VecD a, VecD b) {
  return (a == 0.0 && b != 0.0) ? 1.0 : 0.0;
}
static inline bool vany(VecD mask) { return mask != 0.0; }
static inline VecD vblend(VecD a, VecD b, VecD mask) {
  return mask != 0.0 ? b : a;
}
static inline VecD vnearbyint(VecD x) { return std::nearbyint(x); }
static inline VecD vpow2i(VecD n) {
  return std::ldexp(1.0, static_cast<int>(n));
}
static inline VecD vfrexp(VecD x, VecD* e) {
  int exp = 0;
  const double m = std::frexp(x, &exp);
  *e = static_cast<double>(exp);
  return m;
}
static inline VecD vfloor(VecD x) { return std::floor(x); }
static inline VecD vceil(VecD x) { return std::ceil(x); }
static inline VecD vsqrt(VecD x) { return std::sqrt(x); }
#endif

// ----------------------------------------------- backend-generic pieces

/// a*b + c as the exact two-rounding mul-then-add: literally
/// vadd(vmul(a, b), c). Intrinsic mul/add pairs are never contracted by
/// the compiler, and the kernel TUs pin -ffp-contract=off for their
/// scalar tails, so kernels written with vmuladd stay bit-identical to
/// the scalar reference on every backend.
static inline VecD vmuladd(VecD a, VecD b, VecD c) {
  return vadd(vmul(a, b), c);
}

// ------------------------------------------------------- transcendentals

/// exp(x), Cephes-style: x = n ln2 + r with |r| <= ln2 / 2, exp(r) via a
/// degree-2/3 rational in r^2, scaled by 2^n. Accuracy ~2 ulp on finite
/// inputs; exact at 0. x < -708 flushes to zero (libm returns subnormals
/// down to ~-745); x > 709.7 yields +inf; NaN propagates.
static inline VecD vexp(VecD x) {
  const VecD log2e = vset1(1.4426950408889634073599);
  // Cody-Waite split of ln 2.
  const VecD c1 = vset1(6.93145751953125e-1);
  const VecD c2 = vset1(1.42860682030941723212e-6);

  const VecD n = vnearbyint(vmul(x, log2e));
  VecD r = vsub(x, vmul(n, c1));
  r = vsub(r, vmul(n, c2));
  const VecD rr = vmul(r, r);

  // polevl(rr, P) and polevl(rr, Q) from Cephes exp.c.
  VecD p = vset1(1.26177193074810590878e-4);
  p = vmuladd(p, rr, vset1(3.02994407707441961300e-2));
  p = vmuladd(p, rr, vset1(9.99999999999999999910e-1));
  p = vmul(r, p);

  VecD q = vset1(3.00198505138664455042e-6);
  q = vmuladd(q, rr, vset1(2.52448340349684104192e-3));
  q = vmuladd(q, rr, vset1(2.27265548208155028766e-1));
  q = vmuladd(q, rr, vset1(2.00000000000000000005e0));

  VecD y = vdiv(p, vsub(q, p));
  y = vadd(vset1(1.0), vadd(y, y));
  y = vmul(y, vpow2i(n));

  y = vblend(y, vzero(), vlt(x, vset1(-708.0)));
  y = vblend(y, vset1(std::numeric_limits<double>::infinity()),
             vgt(x, vset1(709.7)));
  y = vblend(y, x, visnan(x));
  return y;
}

/// log(x), Cephes-style: x = m 2^e with m in [sqrt(1/2), sqrt(2)), then a
/// degree-5/5 rational in m - 1. Accuracy ~1 ulp for positive finite x;
/// exact at 1. log(0) = -inf, log(negative) = NaN, log(inf) = inf,
/// subnormals are pre-scaled by 2^54. Matches std::log semantics.
static inline VecD vlog(VecD x) {
  const VecD zero = vzero();
  const VecD min_normal = vset1(2.2250738585072014e-308);

  // Pre-scale subnormals into the normal range: log(x) = log(x*2^54) -
  // 54 ln 2 where needed.
  const VecD sub_mask = vlt(x, min_normal);  // includes x <= 0; blended out
  const VecD x_scaled = vblend(x, vmul(x, vset1(0x1p54)), sub_mask);

  VecD e = vzero();
  VecD m = vfrexp(x_scaled, &e);
  const VecD half_mask = vlt(m, vset1(0.70710678118654752440));
  m = vblend(m, vadd(m, m), half_mask);
  e = vblend(e, vsub(e, vset1(1.0)), half_mask);
  const VecD z = vsub(m, vset1(1.0));
  const VecD zz = vmul(z, z);

  // polevl(z, P) / p1evl(z, Q) from Cephes log.c.
  VecD p = vset1(1.01875663804580931796e-4);
  p = vmuladd(p, z, vset1(4.97494994976747001425e-1));
  p = vmuladd(p, z, vset1(4.70579119878881725854e0));
  p = vmuladd(p, z, vset1(1.44989225341610930846e1));
  p = vmuladd(p, z, vset1(1.79368678507819816313e1));
  p = vmuladd(p, z, vset1(7.70838733755885391666e0));

  VecD q = vadd(z, vset1(1.12873587189167450590e1));
  q = vmuladd(q, z, vset1(4.52279145837532221105e1));
  q = vmuladd(q, z, vset1(8.29875266912776603211e1));
  q = vmuladd(q, z, vset1(7.11544750618563894466e1));
  q = vmuladd(q, z, vset1(2.31251620126765340583e1));

  VecD y = vmul(z, vdiv(vmul(zz, p), q));
  y = vsub(y, vmul(e, vset1(2.121944400546905827679e-4)));
  y = vsub(y, vmul(vset1(0.5), zz));
  VecD out = vadd(z, y);
  out = vadd(out, vmul(e, vset1(0.693359375)));
  // Undo the subnormal pre-scale: subtract 54 ln 2.
  out = vblend(out, vsub(out, vset1(37.429947750237047935)), sub_mask);

  const VecD inf = vset1(std::numeric_limits<double>::infinity());
  out = vblend(out, vsub(zero, inf), veq(x, zero));  // log(0) = -inf
  out = vblend(out, vset1(std::numeric_limits<double>::quiet_NaN()),
               vlt(x, zero));
  out = vblend(out, inf, veq(x, inf));
  out = vblend(out, x, visnan(x));
  return out;
}

}  // namespace veritas::math::simd
