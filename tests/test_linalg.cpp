// Dense LU, tridiagonal, and sparse CG tests.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "numeric/dense.h"
#include "numeric/sparse.h"
#include "numeric/tridiag.h"

namespace dsmt::numeric {
namespace {

TEST(Matrix, IdentityAndMultiply) {
  Matrix id(3, 3);
  for (std::size_t i = 0; i < 3; ++i) id(i, i) = 1.0;
  std::vector<double> x{1.0, -2.0, 5.0};
  EXPECT_EQ(id.multiply(x), x);
  // A non-symmetric matrix catches a transposed product.
  Matrix a(2, 3);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(0, 2) = 3.0;
  a(1, 0) = -1.0;
  a(1, 2) = 4.0;
  EXPECT_EQ(a.multiply(x), (std::vector<double>{12.0, 19.0}));
}

TEST(Matrix, FrobeniusNorm) {
  Matrix m(2, 2);
  m(0, 0) = 3.0;
  m(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
}

TEST(DenseLu, Solves2x2Exactly) {
  Matrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 3.0;
  auto x = solve_dense(a, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(DenseLu, PivotingHandlesZeroDiagonal) {
  Matrix a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 0.0;
  auto x = solve_dense(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(DenseLu, ThrowsOnSingular) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  EXPECT_THROW(LuFactorization f(a), std::runtime_error);
}

TEST(DenseLu, DeterminantSignWithPivoting) {
  Matrix a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 0.0;
  LuFactorization f(a);
  EXPECT_NEAR(f.determinant(), -1.0, 1e-12);
}

TEST(DenseLu, RandomSystemResidualSmall) {
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  const std::size_t n = 40;
  Matrix a(n, n);
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = dist(rng);
    for (std::size_t j = 0; j < n; ++j) a(i, j) = dist(rng);
    a(i, i) += 10.0;
  }
  auto x = solve_dense(a, b);
  auto ax = a.multiply(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-10);
}

TEST(DenseLu, ReusableForMultipleRhs) {
  Matrix a(2, 2);
  a(0, 0) = 4.0;
  a(1, 1) = 2.0;
  LuFactorization f(a);
  EXPECT_NEAR(f.solve({4.0, 2.0})[0], 1.0, 1e-14);
  EXPECT_NEAR(f.solve({8.0, 6.0})[1], 3.0, 1e-14);
}

TEST(Tridiag, MatchesDenseSolve) {
  const std::size_t n = 12;
  std::vector<double> lo(n, -1.0), di(n, 2.5), up(n, -1.0), rhs(n);
  for (std::size_t i = 0; i < n; ++i) rhs[i] = std::sin(0.7 * i);
  auto x = solve_tridiagonal(lo, di, up, rhs);

  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = di[i];
    if (i > 0) a(i, i - 1) = lo[i];
    if (i + 1 < n) a(i, i + 1) = up[i];
  }
  auto xd = solve_dense(a, rhs);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xd[i], 1e-10);
}

TEST(Tridiag, SingleElement) {
  auto x = solve_tridiagonal({0.0}, {4.0}, {0.0}, {8.0});
  EXPECT_DOUBLE_EQ(x[0], 2.0);
}

TEST(Tridiag, SizeMismatchThrows) {
  EXPECT_THROW(solve_tridiagonal({0.0}, {1.0, 2.0}, {0.0}, {1.0}),
               std::invalid_argument);
}

TEST(SparseCsr, MergesDuplicates) {
  SparseBuilder b(2);
  b.add(0, 0, 1.0);
  b.add(0, 0, 2.0);
  b.add(1, 1, 1.0);
  CsrMatrix m(b);
  EXPECT_EQ(m.nonzeros(), 2u);
  auto d = m.diagonal();
  EXPECT_DOUBLE_EQ(d[0], 3.0);
}

TEST(SparseCsr, MultiplyMatchesDense) {
  SparseBuilder b(3);
  b.add(0, 0, 2.0);
  b.add(0, 2, -1.0);
  b.add(1, 1, 3.0);
  b.add(2, 0, -1.0);
  b.add(2, 2, 2.0);
  CsrMatrix m(b);
  std::vector<double> x{1.0, 2.0, 3.0}, y;
  m.multiply(x, y);
  EXPECT_DOUBLE_EQ(y[0], -1.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
  EXPECT_DOUBLE_EQ(y[2], 5.0);
}

TEST(SparseCsr, OutOfRangeIndexThrows) {
  SparseBuilder b(2);
  b.add(0, 5, 1.0);
  EXPECT_THROW(CsrMatrix m(b), std::out_of_range);
}

class CgLaplace : public ::testing::TestWithParam<int> {};

TEST_P(CgLaplace, MatchesDenseDirectSolve) {
  const int n = GetParam();  // grid side
  const int nn = n * n;
  SparseBuilder b(nn);
  Matrix dense(nn, nn, 0.0);
  auto idx = [n](int i, int j) { return i * n + j; };
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      auto add = [&](int r, int c, double v) {
        b.add(r, c, v);
        dense(r, c) += v;
      };
      add(idx(i, j), idx(i, j), 4.0);
      if (i > 0) add(idx(i, j), idx(i - 1, j), -1.0);
      if (i + 1 < n) add(idx(i, j), idx(i + 1, j), -1.0);
      if (j > 0) add(idx(i, j), idx(i, j - 1), -1.0);
      if (j + 1 < n) add(idx(i, j), idx(i, j + 1), -1.0);
    }
  CsrMatrix a(b);
  std::vector<double> rhs(nn);
  for (int i = 0; i < nn; ++i) rhs[i] = std::cos(0.3 * i);

  std::vector<double> x(nn, 0.0);
  auto res = conjugate_gradient(a, rhs, x, {1e-12, 5000});
  ASSERT_TRUE(res.converged);

  auto xd = solve_dense(dense, rhs);
  for (int i = 0; i < nn; ++i) EXPECT_NEAR(x[i], xd[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(GridSizes, CgLaplace, ::testing::Values(3, 5, 9, 14));

TEST(Cg, ZeroRhsGivesZero) {
  SparseBuilder b(3);
  for (int i = 0; i < 3; ++i) b.add(i, i, 2.0);
  CsrMatrix a(b);
  std::vector<double> x(3, 5.0);
  auto res = conjugate_gradient(a, std::vector<double>(3, 0.0), x);
  EXPECT_TRUE(res.converged);
  for (double v : x) EXPECT_NEAR(v, 0.0, 1e-9);
}

}  // namespace
}  // namespace dsmt::numeric
