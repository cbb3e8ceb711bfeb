#include "core/corcondia.hpp"

#include <cmath>

#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "parallel/runtime.hpp"
#include "util/error.hpp"

#if defined(AOADMM_HAVE_OPENMP)
#include <omp.h>
#endif

namespace aoadmm {
namespace {

/// P = A (AᵀA + εI)⁻¹ — the (lightly regularized) pseudoinverse transpose.
/// Overfactored fits produce nearly collinear columns, so a relative ridge
/// keeps the solve well-posed; exactly rank-deficient inputs still raise
/// NumericalError through the Cholesky when even the ridge cannot save a
/// non-positive pivot (ε scales with the Gram's own magnitude, so an
/// all-zero column still fails).
Matrix pseudo_rows(const Matrix& a) {
  Matrix g;
  gram(a, g);
  real_t trace = 0;
  for (std::size_t i = 0; i < g.rows(); ++i) {
    trace += g(i, i);
  }
  AOADMM_CHECK_MSG(trace > 0, "corcondia: zero factor matrix");
  const real_t ridge =
      real_t{1e-10} * trace / static_cast<real_t>(g.rows());
  for (std::size_t i = 0; i < g.rows(); ++i) {
    g(i, i) += ridge;
  }
  Matrix p = a;  // rows solved in place: P(i,:) = (AᵀA+εI)⁻¹ A(i,:)
  solve_normal_equations(g, p);
  return p;
}

}  // namespace

Matrix corcondia_core(const CooTensor& x, cspan<const Matrix> factors) {
  AOADMM_CHECK_MSG(x.order() == 3, "corcondia supports 3-mode tensors");
  AOADMM_CHECK(factors.size() == 3);
  const std::size_t f = factors[0].cols();
  for (std::size_t m = 0; m < 3; ++m) {
    AOADMM_CHECK(factors[m].rows() == x.dim(m));
    AOADMM_CHECK(factors[m].cols() == f);
  }

  const Matrix p0 = pseudo_rows(factors[0]);
  const Matrix p1 = pseudo_rows(factors[1]);
  const Matrix p2 = pseudo_rows(factors[2]);

  // core(p, q, r) laid out as an F x F^2 matrix with column q*F... use
  // column index q + r*F (q fastest within r) to match matricize().
  Matrix core(f, f * f);

#if defined(AOADMM_HAVE_OPENMP)
#pragma omp parallel
#endif
  {
    Matrix local(f, f * f);
#if defined(AOADMM_HAVE_OPENMP)
#pragma omp for schedule(static) nowait
#endif
    for (std::ptrdiff_t n = 0; n < static_cast<std::ptrdiff_t>(x.nnz());
         ++n) {
      const auto nn = static_cast<offset_t>(n);
      const real_t v = x.value(nn);
      const real_t* __restrict a = p0.data() +
          static_cast<std::size_t>(x.index(0, nn)) * f;
      const real_t* __restrict b = p1.data() +
          static_cast<std::size_t>(x.index(1, nn)) * f;
      const real_t* __restrict c = p2.data() +
          static_cast<std::size_t>(x.index(2, nn)) * f;
      for (std::size_t r = 0; r < f; ++r) {
        const real_t vc = v * c[r];
        for (std::size_t q = 0; q < f; ++q) {
          const real_t vcb = vc * b[q];
          real_t* __restrict row = local.data();
          for (std::size_t p = 0; p < f; ++p) {
            row[p * f * f + q + r * f] += vcb * a[p];
          }
        }
      }
    }
    merge_in_thread_order([&] {
      for (std::size_t k = 0; k < core.size(); ++k) {
        core.data()[k] += local.data()[k];
      }
    });
  }
  return core;
}

real_t corcondia(const CooTensor& x, cspan<const Matrix> factors) {
  const Matrix core = corcondia_core(x, factors);
  const std::size_t f = factors[0].cols();
  real_t deviation = 0;
  for (std::size_t p = 0; p < f; ++p) {
    for (std::size_t r = 0; r < f; ++r) {
      for (std::size_t q = 0; q < f; ++q) {
        const real_t target = (p == q && q == r) ? real_t{1} : real_t{0};
        const real_t d = core(p, q + r * f) - target;
        deviation += d * d;
      }
    }
  }
  return 100 * (real_t{1} - deviation / static_cast<real_t>(f));
}

}  // namespace aoadmm
