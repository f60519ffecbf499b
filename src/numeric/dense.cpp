#include "numeric/dense.h"

#include <cmath>

namespace dsmt::numeric {

std::vector<double> Matrix::multiply(const std::vector<double>& x) const {
  if (x.size() != cols_) throw std::invalid_argument("Matrix::multiply: size");
  std::vector<double> y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    const double* row = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
  return y;
}

double Matrix::frobenius_norm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

LuFactorization::LuFactorization(const Matrix& a, double pivot_tol)
    : n_(a.rows()), lu_(a), perm_(a.rows()) {
  if (a.rows() != a.cols())
    throw std::invalid_argument("LuFactorization: matrix must be square");
  for (std::size_t i = 0; i < n_; ++i) perm_[i] = i;

  for (std::size_t k = 0; k < n_; ++k) {
    // Partial pivot: largest magnitude in column k at/below the diagonal.
    std::size_t p = k;
    double best = std::abs(lu_(k, k));
    for (std::size_t i = k + 1; i < n_; ++i) {
      const double v = std::abs(lu_(i, k));
      if (v > best) {
        best = v;
        p = i;
      }
    }
    if (best < pivot_tol)
      throw std::runtime_error("LuFactorization: singular matrix");
    if (p != k) {
      for (std::size_t c = 0; c < n_; ++c) std::swap(lu_(k, c), lu_(p, c));
      std::swap(perm_[k], perm_[p]);
      perm_sign_ = -perm_sign_;
    }
    const double piv = lu_(k, k);
    for (std::size_t i = k + 1; i < n_; ++i) {
      const double m = lu_(i, k) / piv;
      lu_(i, k) = m;
      if (m == 0.0) continue;
      for (std::size_t c = k + 1; c < n_; ++c) lu_(i, c) -= m * lu_(k, c);
    }
  }
}

std::vector<double> LuFactorization::solve(const std::vector<double>& b) const {
  if (b.size() != n_) throw std::invalid_argument("LuFactorization::solve");
  std::vector<double> x(n_);
  for (std::size_t i = 0; i < n_; ++i) x[i] = b[perm_[i]];
  // Forward substitution (unit lower triangle).
  for (std::size_t i = 1; i < n_; ++i) {
    double acc = x[i];
    for (std::size_t c = 0; c < i; ++c) acc -= lu_(i, c) * x[c];
    x[i] = acc;
  }
  // Back substitution.
  for (std::size_t ii = n_; ii-- > 0;) {
    double acc = x[ii];
    for (std::size_t c = ii + 1; c < n_; ++c) acc -= lu_(ii, c) * x[c];
    x[ii] = acc / lu_(ii, ii);
  }
  return x;
}

double LuFactorization::determinant() const {
  double d = perm_sign_;
  for (std::size_t i = 0; i < n_; ++i) d *= lu_(i, i);
  return d;
}

std::vector<double> solve_dense(const Matrix& a, const std::vector<double>& b) {
  return LuFactorization(a).solve(b);
}

}  // namespace dsmt::numeric
