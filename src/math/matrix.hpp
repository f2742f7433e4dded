// Small dense matrix used for HMM transition matrices (tens of states).
// Row-major storage; the only non-trivial operation the EHMM needs is the
// integer matrix power A^Δ (exponentiation by squaring).
//
// Rows can optionally be *padded*: resize_padded() rounds the physical
// row stride up to kRowPadDoubles and fills the pad entries, so SIMD
// kernels can load full lanes past column k without masking and without
// reading out of bounds. Logical shape (rows()/cols()) and every indexed
// accessor are unaffected by padding; only data() exposes the pad words.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace veritas::math {

/// Row stride quantum (in doubles) for padded matrices: one 64-byte cache
/// line. A multiple of every supported SIMD lane width (scalar 1,
/// SSE2/NEON 2, AVX2 4), so padded rows always hold a whole number of
/// lanes and the recursion kernels need no partial-lane tail (they
/// static_assert this).
inline constexpr std::size_t kRowPadDoubles = 8;

/// `cols` rounded up to the row-pad quantum.
constexpr std::size_t padded_cols(std::size_t cols) {
  return (cols + kRowPadDoubles - 1) / kRowPadDoubles * kRowPadDoubles;
}

/// Minimal aligned allocator so padded matrix rows start on a cache/SIMD
/// friendly boundary (vector loads stay unmasked *and* aligned when the
/// stride is a lane multiple).
template <typename T, std::size_t Alignment>
struct AlignedAllocator {
  using value_type = T;
  // The non-type Alignment parameter defeats allocator_traits' default
  // rebind; spell it out.
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };
  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(Alignment));
  }
  template <typename U>
  bool operator==(const AlignedAllocator<U, Alignment>&) const noexcept {
    return true;
  }
};

/// Dense row-major matrix of doubles (optionally with padded rows).
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix filled with `fill` (unpadded: stride == cols).
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Builds from nested initializer-like data; each inner vector is a row
  /// and all rows must have equal length.
  static Matrix from_rows(const std::vector<std::vector<double>>& rows);

  /// n x n identity.
  static Matrix identity(std::size_t n);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  /// Physical distance (in doubles) between consecutive rows. Equals
  /// cols() for unpadded matrices, padded_cols(cols()) after
  /// resize_padded().
  std::size_t col_stride() const noexcept { return stride_; }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * stride_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * stride_ + c];
  }

  /// Read-only view of row r (logical entries only, pads excluded).
  std::span<const double> row(std::size_t r) const noexcept {
    return {data_.data() + r * stride_, cols_};
  }

  /// Raw pointer to row r (contiguous, cols() logical entries followed by
  /// col_stride() - cols() pad entries) for hot loops.
  double* row_data(std::size_t r) noexcept {
    return data_.data() + r * stride_;
  }
  const double* row_data(std::size_t r) const noexcept {
    return data_.data() + r * stride_;
  }

  /// Reshapes to rows x cols and refills every entry, reusing the
  /// existing allocation when capacity suffices. Requires rows, cols > 0.
  /// Rows become unpadded (stride == cols).
  void resize(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Like resize, but rounds the row stride up to kRowPadDoubles and
  /// fills pad entries with `fill` too. Kernel loads past column k then
  /// stay in bounds, so inner loops need no tail masking.
  void resize_padded(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Matrix product; requires this->cols() == rhs.rows().
  Matrix operator*(const Matrix& rhs) const;

  /// out = (*this) * rhs, reusing out's storage (no allocation when out
  /// already holds rows() x rhs.cols()). out must not alias an operand.
  void multiply_into(const Matrix& rhs, Matrix& out) const;

  /// Matrix-vector product; requires v.size() == cols().
  std::vector<double> operator*(std::span<const double> v) const;

  /// Transpose (of the logical entries; result is unpadded).
  Matrix transposed() const;

  /// Element-wise maximum absolute difference over the logical entries;
  /// requires equal logical shapes (strides may differ).
  double max_abs_diff(const Matrix& rhs) const;

  /// True when square, entries >= -tol and every row sums to 1 +- tol.
  bool is_row_stochastic(double tol = 1e-9) const;

  /// Underlying storage (row-major, *including* pad entries when the
  /// matrix is padded), e.g. for serialization of unpadded matrices.
  std::span<const double> data() const noexcept { return data_; }

 private:
  void reshape(std::size_t rows, std::size_t cols, std::size_t stride,
               double fill);

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t stride_ = 0;
  std::vector<double, AlignedAllocator<double, 64>> data_;
};

/// A^power for a square matrix via exponentiation by squaring.
/// power == 0 yields the identity.
Matrix matrix_power(const Matrix& a, std::size_t power);

}  // namespace veritas::math
