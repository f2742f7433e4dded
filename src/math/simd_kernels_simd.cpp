// Vectorized kernel table. This TU is compiled with the strongest
// *bit-exact* SIMD flags the toolchain offers (CMake adds -mavx2
// -ffp-contract=off on x86 when available; AArch64 gets NEON by
// default), so math/simd.hpp picks the widest backend here and the
// kernel body (math/simd_kernels_body.inc) stays bit-identical to the
// scalar reference for the recursions. The dispatcher
// (simd_kernels_scalar.cpp) only routes calls into this TU after
// checking the table's cpu_features against the running CPU, and this
// TU exposes nothing but constant-initialized data, so merely linking
// it is safe on older CPUs.
#include "math/simd_kernels.hpp"

#ifndef VERITAS_SIMD_DISABLED

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "math/matrix.hpp"
#include "math/simd.hpp"

namespace veritas::math::simd_kernels {
namespace {
#include "math/simd_kernels_body.inc"
}  // namespace

namespace detail {
const KernelOps* const compiled_simd_table = &kVectorOps;
}  // namespace detail

}  // namespace veritas::math::simd_kernels

#else  // VERITAS_SIMD_DISABLED

namespace veritas::math::simd_kernels::detail {
const KernelOps* const compiled_simd_table = nullptr;
}  // namespace veritas::math::simd_kernels::detail

#endif
