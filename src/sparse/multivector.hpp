// MultiVector: a block of m dense vectors of length n stored row-major
// (the m values for one row are contiguous). This is the layout the
// paper uses for GSPMV — "We store the m vectors in row-major format to
// take advantage of spatial locality" — and it is what lets the 3x3
// block kernel vectorize over the vector index.
#pragma once

#include <cstddef>
#include <span>

#include "util/aligned.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace mrhs::dense {
class Matrix;
}

namespace mrhs::sparse {

class MultiVector {
 public:
  MultiVector() = default;
  /// Storage is sized uninitialized, then zeroed by the NUMA
  /// first-touch pass: the zero pages land with the workers that will
  /// stream them in GSPMV (util::Placement::kPartitioned matches the
  /// engine's static row chunking).
  MultiVector(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols) {
    util::first_touch_zero(data_.data(), data_.size());
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  [[nodiscard]] double* data() { return data_.data(); }
  [[nodiscard]] const double* data() const { return data_.data(); }

  /// Contiguous slice holding row i (all m column values).
  [[nodiscard]] std::span<double> row(std::size_t i) {
    return {data_.data() + i * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t i) const {
    return {data_.data() + i * cols_, cols_};
  }

  double& operator()(std::size_t i, std::size_t j) {
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    return data_[i * cols_ + j];
  }

  void set_zero() { std::fill(data_.begin(), data_.end(), 0.0); }

  /// Copy column j out to / in from a contiguous vector of length n.
  void copy_col_out(std::size_t j, std::span<double> out) const;
  void copy_col_in(std::size_t j, std::span<const double> in);

  /// Fill every entry with i.i.d. standard normal samples.
  void fill_normal(util::StreamRng& rng);

  /// this += alpha * x   (elementwise over the whole block)
  void axpy(double alpha, const MultiVector& x);

  /// this *= alpha
  void scale(double alpha);

  /// Per-column 2-norms; `out` has length cols().
  void col_norms(std::span<double> out) const;

  /// Per-column dot products  out[j] = sum_i this(i,j) * other(i,j).
  void col_dots(const MultiVector& other, std::span<double> out) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  util::NoInitAlignedVector<double> data_;
};

// Tall-skinny block algebra. Contract: every output entry is one
// sequential chain of multiply-adds in a fixed order (over rows in row
// order for a Gram entry, over p for a row of X * S), whatever the
// kernel width. For m in {4, 8, 12, 16, 24, 32} the kernels below are
// specialised on m at compile time and keep their accumulators in
// registers; other m run the `generic` loops. Both produce the same
// doubles in a given build.

/// Gram matrix G = A^T B (m-by-m) of two equal-shaped multivectors.
/// gram(a, a) computes one triangle and mirrors it (fma(x, y, c) ==
/// fma(y, x, c), so the mirror is the entry the other triangle would
/// have computed).
dense::Matrix gram(const MultiVector& a, const MultiVector& b);

/// Y += X * S where S is cols-by-cols (small). Row-major friendly:
/// every row of Y gets row(X) * S. Y and X must be distinct.
void add_multiplied(MultiVector& y, const MultiVector& x,
                    const dense::Matrix& s);

/// Y1 += X1 * S1 and Y2 += X2 * S2 in one pass over the rows (block
/// CG's X += P alpha, R -= Q alpha). Bitwise equal to the two
/// add_multiplied calls.
void add_multiplied_pair(MultiVector& y1, const MultiVector& x1,
                         const dense::Matrix& s1, MultiVector& y2,
                         const MultiVector& x2, const dense::Matrix& s2);

/// X = X * S + R in place (S square, cols-by-cols; block CG's
/// P = R + P beta). Each entry is the chain over p of X * S, then one
/// add of R.
void multiply_right_add(MultiVector& x, const dense::Matrix& s,
                        const MultiVector& r);

/// The runtime-m loops: the kernels for m without a specialisation,
/// and the reference the specialised kernels are tested against.
namespace generic {
dense::Matrix gram(const MultiVector& a, const MultiVector& b);
void add_multiplied(MultiVector& y, const MultiVector& x,
                    const dense::Matrix& s);
void multiply_right_add(MultiVector& x, const dense::Matrix& s,
                        const MultiVector& r);
}  // namespace generic

/// Y = beta * Y + alpha * X  elementwise.
void axpby(double alpha, const MultiVector& x, double beta, MultiVector& y);

}  // namespace mrhs::sparse
