#include "la/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "la/solve_isa.hpp"
#include "parallel/runtime.hpp"
#include "util/aligned.hpp"
#include "util/error.hpp"
#include "util/isa.hpp"

namespace aoadmm {

std::size_t Cholesky::try_factor(const Matrix& spd, real_t jitter) noexcept {
  const std::size_t n = spd.rows();
  l_.resize(n, n);  // no-op reallocation-wise when the size is unchanged

  // Left-looking scalar Cholesky: fine for the small F x F systems AO-ADMM
  // produces (F is the CPD rank, 10..200).
  for (std::size_t j = 0; j < n; ++j) {
    real_t diag = spd(j, j) + jitter;
    for (std::size_t k = 0; k < j; ++k) {
      diag -= l_(j, k) * l_(j, k);
    }
    if (!(diag > real_t{0})) {
      return j;
    }
    const real_t ljj = std::sqrt(diag);
    l_(j, j) = ljj;
    const real_t inv = real_t{1} / ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      real_t v = spd(i, j);
      const real_t* __restrict li = l_.data() + i * n;
      const real_t* __restrict lj = l_.data() + j * n;
      for (std::size_t k = 0; k < j; ++k) {
        v -= li[k] * lj[k];
      }
      l_(i, j) = v * inv;
    }
  }
  return kFactorOk;
}

void Cholesky::factor(const Matrix& spd) {
  AOADMM_CHECK_MSG(spd.rows() == spd.cols(), "Cholesky requires square input");
  const std::size_t pivot = try_factor(spd, 0);
  if (pivot != kFactorOk) {
    throw NumericalError("Cholesky: matrix is not positive definite at pivot " +
                         std::to_string(pivot));
  }
}

CholeskyReport Cholesky::factor_guarded(const Matrix& spd,
                                        const CholeskyGuard& guard) {
  AOADMM_CHECK_MSG(spd.rows() == spd.cols(), "Cholesky requires square input");
  CholeskyReport report;
  std::size_t pivot = try_factor(spd, 0);
  if (pivot == kFactorOk) {
    return report;
  }

  // Scale the jitter to the matrix so the guard is unit-free: a ridge of
  // initial_jitter * max|diag| is negligible relative to the spectrum, and
  // the geometric escalation reaches O(max|diag|) within a handful of
  // attempts — enough to overwhelm any negative eigenvalue a corrupted or
  // indefinite input can hide (|λmin| <= n·max|A_ij| <= n·max|diag| for a
  // symmetric matrix with a dominant diagonal; the escalation overshoots
  // far past that anyway).
  const std::size_t n = spd.rows();
  real_t scale = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const real_t d = std::abs(spd(i, i));
    if (std::isfinite(d) && d > scale) {
      scale = d;
    }
  }
  if (!(scale > real_t{0})) {
    scale = 1;
  }

  real_t jitter = guard.initial_jitter * scale;
  for (unsigned attempt = 1; attempt <= guard.max_attempts;
       ++attempt, jitter *= guard.growth) {
    if (!std::isfinite(jitter)) {
      break;
    }
    pivot = try_factor(spd, jitter);
    if (pivot == kFactorOk) {
      report.attempts = attempt;
      report.jitter = jitter;
      return report;
    }
  }
  throw NumericalError(
      "Cholesky: matrix is not positive definite at pivot " +
      std::to_string(pivot) + " even after " +
      std::to_string(guard.max_attempts) + " jitter attempts (final ridge " +
      std::to_string(jitter) + "); input is likely NaN-contaminated");
}

void Cholesky::solve_inplace(span<real_t> b) const noexcept {
  const std::size_t n = dim();
  const real_t* __restrict l = l_.data();
  // Forward substitution: L y = b.
  for (std::size_t i = 0; i < n; ++i) {
    real_t v = b[i];
    const real_t* __restrict li = l + i * n;
    for (std::size_t k = 0; k < i; ++k) {
      v -= li[k] * b[k];
    }
    b[i] = v / li[i];
  }
  // Backward substitution: Lᵀ x = y.
  for (std::size_t ii = n; ii-- > 0;) {
    real_t v = b[ii];
    for (std::size_t k = ii + 1; k < n; ++k) {
      v -= l[k * n + ii] * b[k];
    }
    b[ii] = v / l[ii * n + ii];
  }
}

void Cholesky::solve_rows_inplace(Matrix& b) const {
  solve_rows_inplace(b, 0, b.rows());
}

void Cholesky::solve_rows_inplace(Matrix& b, std::size_t row_begin,
                                  std::size_t row_end) const {
  const std::size_t n = dim();
  AOADMM_CHECK_MSG(b.cols() == n,
                   "Cholesky: right-hand side width must equal dim()");
  AOADMM_CHECK_MSG(row_begin <= row_end && row_end <= b.rows(),
                   "Cholesky: row range out of bounds");
  solve_rows_inplace(b.data() + row_begin * n, row_end - row_begin);
}

namespace {

/// Panel scratch on the stack, enough for every rank up to 1024.
constexpr std::size_t kStackPanelDoubles = detail::solve_panel_doubles(1024);

}  // namespace

void Cholesky::solve_rows_inplace(real_t* b, std::size_t rows) const {
  static const detail::SolveRowsKernel kernel =
      detail::solve_rows_kernel(detail::active_isa_flavor());
  const std::size_t n = dim();
  const std::size_t need = detail::solve_panel_doubles(n);
  alignas(kCacheLineBytes) real_t stack[kStackPanelDoubles];
  std::vector<real_t, AlignedAllocator<real_t>> heap;
  if (need > kStackPanelDoubles) {
    heap.resize(need);
  }
  kernel(l_.data(), n, b, rows, heap.empty() ? stack : heap.data());
}

namespace {

/// Solve every row of `rhs`: one contiguous row range per thread, each
/// through solve_rows_inplace. Rows are independent, so the partition
/// does not change any bits.
void solve_all_rows(const Cholesky& chol, Matrix& rhs) {
  const std::size_t rows = rhs.rows();
  const auto parts = static_cast<std::size_t>(max_threads());
  const std::size_t chunk = (rows + parts - 1) / parts;
  parallel_for(0, parts, [&](std::size_t t) {
    const std::size_t lo = std::min(rows, t * chunk);
    chol.solve_rows_inplace(rhs, lo, std::min(rows, lo + chunk));
  });
}

}  // namespace

void solve_normal_equations(const Matrix& gram_matrix, Matrix& rhs_inout) {
  AOADMM_CHECK(gram_matrix.rows() == rhs_inout.cols());
  const Cholesky chol(gram_matrix);
  solve_all_rows(chol, rhs_inout);
}

CholeskyReport solve_normal_equations_guarded(const Matrix& gram_matrix,
                                              Matrix& rhs_inout,
                                              const CholeskyGuard& guard) {
  AOADMM_CHECK(gram_matrix.rows() == rhs_inout.cols());
  Cholesky chol;
  const CholeskyReport report = chol.factor_guarded(gram_matrix, guard);
  solve_all_rows(chol, rhs_inout);
  return report;
}

}  // namespace aoadmm
