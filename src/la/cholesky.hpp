// Cholesky factorization of the F x F normal-equations matrix (G + rho*I)
// and the forward/backward substitutions that dominate each ADMM iteration
// (Algorithm 1, lines 4 and 6). This replaces the paper's use of Intel MKL.
#pragma once

#include "la/matrix.hpp"
#include "util/types.hpp"

namespace aoadmm {

/// Policy for Cholesky::factor_guarded(): when a pivot is non-positive,
/// retry with a diagonal ridge ("jitter") escalated geometrically from
/// `initial_jitter` (relative to the largest diagonal magnitude) by
/// `growth` per attempt, up to `max_attempts` retries.
struct CholeskyGuard {
  unsigned max_attempts = 8;
  real_t initial_jitter = 1e-10;
  real_t growth = 100;
};

/// What a guarded factorization had to do. attempts == 0 means the plain
/// factorization succeeded and no jitter was added.
struct CholeskyReport {
  unsigned attempts = 0;
  /// Absolute ridge added to every diagonal entry (0 when attempts == 0).
  real_t jitter = 0;
};

/// Lower-triangular Cholesky factor L of a symmetric positive-definite
/// matrix A = L Lᵀ. One factorization is shared by every row update in an
/// ADMM sweep, so this object is immutable and safe to use concurrently
/// from many threads.
class Cholesky {
 public:
  /// Empty factorization; call factor() before solving. Lets long-lived
  /// solver sessions hoist the object and refactor in place every sweep
  /// without reallocating the F x F storage.
  Cholesky() = default;

  /// Factor `spd` (must be square, symmetric, positive definite).
  /// Throws NumericalError if a non-positive pivot is encountered.
  explicit Cholesky(const Matrix& spd) { factor(spd); }

  /// (Re)factor into the existing storage. Reuses the allocation when the
  /// dimension is unchanged.
  void factor(const Matrix& spd);

  /// Guarded (re)factorization: factor `spd`, and on a non-positive pivot
  /// retry with a geometrically escalated diagonal ridge instead of
  /// throwing. Factorizing A + jitter·I biases the subsequent solves toward
  /// the ridge-regularized system — the price of surviving a rank-deficient
  /// or corrupted input. Throws NumericalError only when even the largest
  /// permitted jitter fails (e.g. NaN-contaminated input).
  CholeskyReport factor_guarded(const Matrix& spd,
                                const CholeskyGuard& guard = {});

  std::size_t dim() const noexcept { return l_.rows(); }
  const Matrix& lower() const noexcept { return l_; }

  /// Solve A x = b in place (b becomes x). Requires b.size() == dim();
  /// unchecked. Thread-safe (const).
  void solve_inplace(span<real_t> b) const noexcept;

  /// Solve A Xᵀ = Bᵀ in place: each row of `b` is an independent
  /// right-hand side. Rows are substituted eight at a time so their
  /// dependency chains overlap; each row still runs exactly the operations
  /// of solve_inplace in the same order, so the result is bitwise equal to
  /// solving row by row. Serial; callers parallelize over row ranges.
  /// Throws InvalidArgument unless b.cols() == dim().
  void solve_rows_inplace(Matrix& b) const;

  /// Solve for the subset of rows [row_begin, row_end). Throws
  /// InvalidArgument unless b.cols() == dim() and
  /// row_begin <= row_end <= b.rows().
  void solve_rows_inplace(Matrix& b, std::size_t row_begin,
                          std::size_t row_end) const;

 private:
  /// One factorization attempt with `jitter` added to every diagonal entry.
  /// Returns the pivot index of the first non-positive pivot, or
  /// `kFactorOk` on success.
  std::size_t try_factor(const Matrix& spd, real_t jitter) noexcept;
  static constexpr std::size_t kFactorOk = static_cast<std::size_t>(-1);

  Matrix l_;  // lower triangle holds L; strict upper triangle is zero
};

/// Symmetric rank-F linear solve helper for the *unconstrained* ALS update:
/// solves X * G = K for X (i.e. Gᵀ xᵀ = kᵀ per row) reusing one Cholesky.
void solve_normal_equations(const Matrix& gram_matrix, Matrix& rhs_inout);

/// Guarded variant: survives a rank-deficient Gram matrix by escalating a
/// diagonal ridge (see Cholesky::factor_guarded). Returns what the guard
/// had to do so callers can report the intervention.
CholeskyReport solve_normal_equations_guarded(const Matrix& gram_matrix,
                                              Matrix& rhs_inout,
                                              const CholeskyGuard& guard = {});

}  // namespace aoadmm
