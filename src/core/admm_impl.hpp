// Internal helpers of the ADMM envelope in core/admm.cpp: the row kernels
// both variants schedule, the penalty, divergence and rebalancing rules.
// The generalized-loss row solver (core/loss_solve.cpp) reuses the
// penalty, the residual sums and the rebalancing decision.
#pragma once

#include <cmath>
#include <limits>

#include "core/admm.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "util/error.hpp"

namespace aoadmm::detail {

/// ρ = trace(G)/F (Algorithm 1, line 3), floored away from zero so the
/// normal equations stay positive definite even for degenerate factors.
inline real_t admm_penalty(const Matrix& g) {
  const std::size_t f = g.rows();
  real_t trace = 0;
  for (std::size_t i = 0; i < f; ++i) {
    trace += g(i, i);
  }
  real_t rho = trace / static_cast<real_t>(f);
  if (!(rho > real_t{1e-12})) {
    rho = real_t{1e-12};
  }
  return rho;
}

/// G + ρI, the system matrix factored once per ADMM call (line 4), written
/// into `out` (resized only when the rank changes) so the hot path does not
/// allocate.
inline void regularized_gram_into(const Matrix& g, real_t rho, Matrix& out) {
  if (!out.same_shape(g)) {
    out.resize(g.rows(), g.cols());
  }
  const cspan<real_t> src = g.flat();
  const span<real_t> dst = out.flat();
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = src[i];
  }
  for (std::size_t i = 0; i < g.rows(); ++i) {
    out(i, i) += rho;
  }
}

/// Per-inner-solve divergence detector. An iterate is declared divergent
/// when its residual accumulators go non-finite (NaN/Inf contamination
/// propagates into the sums within one iteration), or when the relative
/// primal residual both exceeds 1 — a 100% residual, far outside any
/// convergent regime — and has grown past `factor` times the best residual
/// this solve has seen. The two-part growth test avoids false positives on
/// iterates whose residual merely wobbles near convergence.
struct DivergenceMonitor {
  real_t best_primal = std::numeric_limits<real_t>::infinity();

  bool diverged(const ResidualAccum& acc, real_t factor) noexcept {
    const real_t probe =
        acc.primal_num + acc.primal_den + acc.dual_num + acc.dual_den;
    if (!std::isfinite(probe)) {
      return true;
    }
    const real_t p = acc.primal();
    if (p < best_primal) {
      best_primal = p;
      return false;
    }
    return p > real_t{1} && p > factor * best_primal;
  }
};

/// Residual-balancing decision (AdaptiveRhoOptions): the factor to multiply
/// ρ by, or 0 when the residuals are balanced (or non-finite — divergence
/// recovery owns that case, not rebalancing).
inline real_t rebalance_scale(const ResidualAccum& acc,
                              const AdaptiveRhoOptions& ad) noexcept {
  const real_t p = acc.primal();
  const real_t d = acc.dual();
  if (!(std::isfinite(p) && std::isfinite(d))) {
    return 0;
  }
  if (p > ad.ratio * d) {
    return ad.rescale;
  }
  if (d > ad.ratio * p) {
    return real_t{1} / ad.rescale;
  }
  return 0;
}

/// Rescale the scaled duals after ρ ← scale·ρ: u = y/ρ, so u ← u/scale
/// keeps the underlying multiplier y unchanged.
inline void rescale_duals(Matrix& u, real_t scale) noexcept {
  const real_t inv = real_t{1} / scale;
  for (real_t& v : u.flat()) {
    v *= inv;
  }
}

/// Least-squares step for rows [lo, hi): aux ← (G+ρI)⁻¹(K + ρ(H + U))
/// (Algorithm 1, line 6). Serial over the range; callers parallelize.
inline void admm_solve_rows(const Matrix& h, const Matrix& u, const Matrix& k,
                            real_t rho, const Cholesky& chol, Matrix& aux,
                            std::size_t lo, std::size_t hi) {
  const std::size_t f = h.cols();
  for (std::size_t i = lo; i < hi; ++i) {
    const real_t* __restrict hr = h.data() + i * f;
    const real_t* __restrict ur = u.data() + i * f;
    const real_t* __restrict kr = k.data() + i * f;
    real_t* __restrict ar = aux.data() + i * f;
    for (std::size_t c = 0; c < f; ++c) {
      ar[c] = kr[c] + rho * (hr[c] + ur[c]);
    }
  }
  chol.solve_rows_inplace(aux, lo, hi);
}

/// Primal candidate for rows [lo, hi): h_old ← H; H ← Ĥ − U where
/// Ĥ = α·H̃ + (1−α)·H₀ is the (optionally over-relaxed) least-squares
/// iterate, written back into `aux` so the dual step sees it (lines 7–8
/// before the prox). The prox itself is applied by the caller so operators
/// that need whole rows see them contiguously.
inline void admm_primal_prep_rows(Matrix& h, const Matrix& u, Matrix& aux,
                                  Matrix& h_old, real_t alpha,
                                  std::size_t lo, std::size_t hi) noexcept {
  const std::size_t f = h.cols();
  for (std::size_t i = lo; i < hi; ++i) {
    real_t* __restrict hr = h.data() + i * f;
    real_t* __restrict ho = h_old.data() + i * f;
    const real_t* __restrict ur = u.data() + i * f;
    real_t* __restrict ar = aux.data() + i * f;
    if (alpha != real_t{1}) {
      for (std::size_t c = 0; c < f; ++c) {
        ho[c] = hr[c];
        ar[c] = alpha * ar[c] + (real_t{1} - alpha) * ho[c];
        hr[c] = ar[c] - ur[c];
      }
    } else {
      for (std::size_t c = 0; c < f; ++c) {
        ho[c] = hr[c];
        hr[c] = ar[c] - ur[c];
      }
    }
  }
}

/// Dual update + residual accumulation for rows [lo, hi): U ← U + H − H̃
/// (line 9) and the four norms of lines 10–11.
inline ResidualAccum admm_dual_rows(const Matrix& h, Matrix& u,
                                    const Matrix& aux, const Matrix& h_old,
                                    std::size_t lo, std::size_t hi) noexcept {
  const std::size_t f = h.cols();
  ResidualAccum acc;
  for (std::size_t i = lo; i < hi; ++i) {
    const real_t* __restrict hr = h.data() + i * f;
    real_t* __restrict ur = u.data() + i * f;
    const real_t* __restrict ar = aux.data() + i * f;
    const real_t* __restrict ho = h_old.data() + i * f;
    for (std::size_t c = 0; c < f; ++c) {
      const real_t diff = hr[c] - ar[c];
      ur[c] += diff;
      acc.primal_num += diff * diff;
      acc.primal_den += hr[c] * hr[c];
      const real_t step = hr[c] - ho[c];
      acc.dual_num += step * step;
      acc.dual_den += ur[c] * ur[c];
    }
  }
  return acc;
}

}  // namespace aoadmm::detail
