#include "la/cholesky.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "la/blas.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace aoadmm {
namespace {

/// SPD test matrix: AᵀA + n·I from a random A.
Matrix random_spd(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const Matrix a = Matrix::random_normal(n + 5, n, rng);
  Matrix g;
  gram(a, g);
  for (std::size_t i = 0; i < n; ++i) {
    g(i, i) += static_cast<real_t>(n);
  }
  return g;
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(real_t)) == 0;
}

TEST(CholeskyTest, ReconstructsLLt) {
  const Matrix spd = random_spd(6, 1);
  const Cholesky chol(spd);
  const Matrix& l = chol.lower();
  const Matrix llt = matmul(l, transpose(l));
  EXPECT_LT(max_abs_diff(llt, spd), 1e-10);
}

TEST(CholeskyTest, LowerIsTriangular) {
  const Cholesky chol(random_spd(5, 2));
  const Matrix& l = chol.lower();
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = i + 1; j < 5; ++j) {
      EXPECT_DOUBLE_EQ(l(i, j), 0.0);
    }
  }
}

TEST(CholeskyTest, SolveRecoversKnownSolution) {
  const std::size_t n = 8;
  const Matrix spd = random_spd(n, 3);
  Rng rng(4);
  std::vector<real_t> x_true(n);
  for (auto& v : x_true) {
    v = rng.normal();
  }
  // b = A x
  std::vector<real_t> b(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      b[i] += spd(i, j) * x_true[j];
    }
  }
  const Cholesky chol(spd);
  chol.solve_inplace({b.data(), n});
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(b[i], x_true[i], 1e-9);
  }
}

TEST(CholeskyTest, SolveRowsMatchesPerRowSolve) {
  // Ranks below, at and above one group width, row counts that leave no
  // group, exactly one, one plus a remainder, and a blocked-ADMM block.
  for (const std::size_t n : {1, 2, 5, 8, 16, 33, 64, 200}) {
    const Cholesky chol(random_spd(n, 5 + n));
    for (const std::size_t rows : {1, 7, 8, 9, 50, 67}) {
      Rng rng(6 + rows);
      Matrix rhs = Matrix::random_normal(rows, n, rng);
      Matrix per_row = rhs;
      chol.solve_rows_inplace(rhs);
      for (std::size_t i = 0; i < per_row.rows(); ++i) {
        chol.solve_inplace(per_row.row(i));
      }
      EXPECT_TRUE(bitwise_equal(rhs, per_row)) << "n=" << n
                                               << " rows=" << rows;
    }
  }
}

TEST(CholeskyTest, PartialRowRangeOnlyTouchesRange) {
  // [3, 22) starts a group on an unaligned row and ends in a remainder.
  const Matrix spd = random_spd(4, 7);
  Rng rng(8);
  Matrix rhs = Matrix::random_normal(30, 4, rng);
  Matrix expect = rhs;
  const Cholesky chol(spd);
  chol.solve_rows_inplace(rhs, 3, 22);
  // Rows in the range solved one by one; the rest untouched.
  for (std::size_t i = 3; i < 22; ++i) {
    chol.solve_inplace(expect.row(i));
  }
  EXPECT_TRUE(bitwise_equal(rhs, expect));
}

TEST(CholeskyTest, SolveRowsRejectsMismatchedRightHandSide) {
  const Cholesky chol(random_spd(4, 12));
  Matrix narrow(10, 3);
  EXPECT_THROW(chol.solve_rows_inplace(narrow), InvalidArgument);
  EXPECT_THROW(chol.solve_rows_inplace(narrow, 0, 1), InvalidArgument);
  Matrix rhs(10, 4);
  EXPECT_THROW(chol.solve_rows_inplace(rhs, 0, 11), InvalidArgument);
  EXPECT_THROW(chol.solve_rows_inplace(rhs, 6, 5), InvalidArgument);
  EXPECT_NO_THROW(chol.solve_rows_inplace(rhs, 10, 10));
}

TEST(CholeskyTest, IdentitySolveIsNoop) {
  const Cholesky chol(Matrix::identity(3));
  std::vector<real_t> b{1.0, -2.0, 3.0};
  chol.solve_inplace({b.data(), 3});
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[1], -2.0);
  EXPECT_DOUBLE_EQ(b[2], 3.0);
}

TEST(CholeskyTest, RejectsNonSquare) {
  const Matrix m(2, 3);
  EXPECT_THROW(Cholesky{m}, InvalidArgument);
}

TEST(CholeskyTest, RejectsIndefinite) {
  Matrix m = Matrix::identity(3);
  m(2, 2) = -1;
  EXPECT_THROW(Cholesky{m}, NumericalError);
}

TEST(CholeskyTest, RejectsSingular) {
  const Matrix zero(3, 3);
  EXPECT_THROW(Cholesky{zero}, NumericalError);
}

TEST(SolveNormalEquations, SolvesAllRows) {
  const std::size_t f = 6;
  const Matrix g = random_spd(f, 9);
  Rng rng(10);
  const Matrix x_true = Matrix::random_normal(30, f, rng);
  // rhs = X * G (row i: G xᵢ since G symmetric)
  Matrix rhs = matmul(x_true, g);
  Matrix per_row = rhs;
  solve_normal_equations(g, rhs);
  EXPECT_LT(max_abs_diff(rhs, x_true), 1e-8);
  const Cholesky chol(g);
  for (std::size_t i = 0; i < per_row.rows(); ++i) {
    chol.solve_inplace(per_row.row(i));
  }
  EXPECT_TRUE(bitwise_equal(rhs, per_row));
}

TEST(GuardedCholesky, CleanMatrixNeedsNoJitter) {
  const Matrix spd = random_spd(6, 11);
  Cholesky chol;
  const CholeskyReport r = chol.factor_guarded(spd);
  EXPECT_EQ(r.attempts, 0u);
  EXPECT_EQ(r.jitter, 0.0);
  // And the factorization is the plain one.
  const Matrix llt = matmul(chol.lower(), transpose(chol.lower()));
  EXPECT_LT(max_abs_diff(llt, spd), 1e-10);
}

TEST(GuardedCholesky, RecoversFromRankDeficientGram) {
  // The all-ones matrix is the Gram of a single repeated column: rank one,
  // and its second Cholesky pivot is exactly 0, so the plain factorization
  // rejects it deterministically.
  Matrix g(3, 3);
  for (real_t& v : g.flat()) {
    v = 1.0;
  }
  EXPECT_THROW(Cholesky{g}, NumericalError);

  Cholesky chol;
  const CholeskyReport r = chol.factor_guarded(g);
  EXPECT_GT(r.attempts, 0u);
  EXPECT_GT(r.jitter, 0.0);
  // The ridge-stabilized system solves to something finite.
  std::vector<real_t> b(3, 1.0);
  chol.solve_inplace({b.data(), b.size()});
  for (const real_t v : b) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(GuardedCholesky, RecoversFromNegativeDiagonal) {
  Matrix m = Matrix::identity(4);
  m(1, 1) = -5;  // indefinite: the plain factorization throws
  EXPECT_THROW(Cholesky{m}, NumericalError);
  Cholesky chol;
  const CholeskyReport r = chol.factor_guarded(m);
  EXPECT_GT(r.attempts, 0u);
  // The jitter had to outgrow the negative eigenvalue.
  EXPECT_GT(r.jitter, 5.0);
}

TEST(GuardedCholesky, NanInputStillThrows) {
  Matrix m = Matrix::identity(3);
  m(1, 1) = std::numeric_limits<real_t>::quiet_NaN();
  Cholesky chol;
  EXPECT_THROW(chol.factor_guarded(m), NumericalError);
}

TEST(GuardedCholesky, RespectsAttemptBudget) {
  Matrix m = Matrix::identity(3);
  m(2, 2) = -1e6;
  Cholesky chol;
  // One attempt at a jitter far smaller than the defect cannot succeed.
  CholeskyGuard guard;
  guard.max_attempts = 1;
  guard.initial_jitter = 1e-12;
  guard.growth = 2;
  EXPECT_THROW(chol.factor_guarded(m, guard), NumericalError);
}

TEST(GuardedCholesky, SolveNormalEquationsGuardedOnSingularSystem) {
  // Exactly rank-deficient normal equations (rank-one Gram with an exact
  // zero pivot): the unguarded entry point throws, the guarded one returns
  // a finite least-squares-ish solution.
  Rng rng(13);
  // All-4s: l11 = 2 and l21 = 2 are exact in binary, so the second pivot
  // is exactly 0 and the plain factorization rejects it deterministically.
  Matrix g(4, 4);
  for (real_t& v : g.flat()) {
    v = 4.0;
  }
  Matrix rhs = Matrix::random_normal(10, 4, rng);
  Matrix rhs_copy = rhs;
  EXPECT_THROW(solve_normal_equations(g, rhs_copy), NumericalError);

  const CholeskyReport r = solve_normal_equations_guarded(g, rhs);
  EXPECT_GT(r.attempts, 0u);
  for (const real_t v : rhs.flat()) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

}  // namespace
}  // namespace aoadmm
