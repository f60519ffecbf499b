// Small dense linear algebra: row-major matrix, LU factorization with partial
// pivoting, and solve. Sized for circuit MNA systems (tens to a few hundred
// unknowns); the field solvers use the sparse CG path instead.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace dsmt::numeric {

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  /// fill [1]: initial value of every entry.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Reset every entry to `v` without reallocating.
  /// v [1].
  void fill(double v) { data_.assign(data_.size(), v); }

  /// Matrix-vector product. `x.size()` must equal `cols()`.
  std::vector<double> multiply(const std::vector<double>& x) const;

  /// Frobenius norm.
  double frobenius_norm() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// In-place LU factorization with partial pivoting (Doolittle).
/// After construction, `solve` performs forward/back substitution; the
/// factorization is reusable across many right-hand sides (the transient
/// circuit engine exploits this whenever the Jacobian is unchanged).
class LuFactorization {
 public:
  /// Factorizes a copy of `a`. Throws std::runtime_error on singularity
  /// (pivot below `pivot_tol`).
  /// pivot_tol [1].
  explicit LuFactorization(const Matrix& a, double pivot_tol = 1e-300);

  std::size_t size() const { return n_; }

  /// Solves A x = b. `b.size()` must equal `size()`.
  std::vector<double> solve(const std::vector<double>& b) const;

  /// Determinant of the factorized matrix (sign-corrected for pivoting).
  double determinant() const;

 private:
  std::size_t n_ = 0;
  Matrix lu_;
  std::vector<std::size_t> perm_;
  int perm_sign_ = 1;
};

/// Convenience: solve A x = b with a one-shot LU factorization.
std::vector<double> solve_dense(const Matrix& a, const std::vector<double>& b);

}  // namespace dsmt::numeric
